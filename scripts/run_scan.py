#!/usr/bin/env python3
"""Run the default conjecture scan and write scan.json to the current directory.

Any inconsistent record would be a counterexample to the uniqueness picture,
so the scan runs strict: a nonzero exit means look at the output file.
"""
import sys

from qwell.cli import main

if __name__ == "__main__":
    argv = ["scan", "--out", "scan.json", "--strict"] + sys.argv[1:]
    sys.exit(main(argv))
