"""Record the CLI golden table: exit code and stdout SHA-256 per command.

    PYTHONPATH=src python3 perfbench/record_golden.py

Runs every command of the cli-fixtures workload once, through the
workload's own op, and rewrites ``perfbench/golden.json``. The table pins
the behaviour of the commit it was recorded at; re-record only when a
change to CLI output is intended.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys

from run import child_env
from workloads import (GOLDEN, CliFixtures, cli_commands, command_key,
                       scratch_dir)


def main() -> int:
    # the CLI processes run in the work directory, so the package path
    # they inherit must be absolute
    os.environ.update(child_env())
    table = {}
    with scratch_dir("golden") as workdir:
        fixtures = CliFixtures(0, workdir)
        for argv in cli_commands():
            code, stdout, stderr = fixtures.op(argv)
            if b"Traceback" in stderr:
                print(f"traceback from {command_key(argv)}", file=sys.stderr)
                return 1
            table[command_key(argv)] = {
                "exit": code,
                "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            }
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"{len(table)} commands recorded in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
