#!/usr/bin/env python3
"""Fails when a gtest binary lists a case named after its parameter's raw bytes.

A value-parameterized suite without a name generator gets ctest names built
from gtest's printout of its parameter, and a struct without a PrintTo prints
as its raw bytes ("32-byte object <04-00 00-00 ...>"). Those bytes include
uninitialized padding, so such names differ between builds and even between
runs, and no two test lists can be compared. Give the suite a name generator
built from the struct's fields and the struct a PrintTo.

Registered as a ctest (`check_test_names_py`) over every test binary. Run
directly with:  python3 scripts/check_test_names.py BINARY [BINARY ...]

Exit status: 0 when no listing contains a raw-byte parameter, 1 otherwise.
"""

import subprocess
import sys

RAW_BYTES = "-byte object <"


def main(binaries):
    if not binaries:
        print(__doc__, file=sys.stderr)
        return 2
    offenders = []
    for binary in binaries:
        listing = subprocess.run(
            [binary, "--gtest_list_tests"], capture_output=True, text=True, check=True
        ).stdout
        offenders += [f"{binary}: {line.strip()}" for line in listing.splitlines()
                      if RAW_BYTES in line]
    for offender in offenders:
        print(offender)
    print(f"{len(offenders)} listed test(s) carry raw parameter bytes "
          f"across {len(binaries)} binaries")
    return 1 if offenders else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
