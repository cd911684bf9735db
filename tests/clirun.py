"""Run the metadist CLI in-process and read the table a run wrote.

run(*argv) calls cli.main with stdout and stderr captured.  Its table()
holds what the tests know of the CLI's output forms: a CSV at --out with
its <out>.meta.json sidecar, one JSON document {"columns", "rows", "meta"}
on stdout or at --out, a CSV on stdout (no meta), and simulate's `ccp`
samples at --out with the <out>.json campaign record as the meta.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from typing import Any

from metadist import cli


@dataclass(frozen=True)
class Table:
    """Columns by header name, in header order, each cell as written.

    A CSV cell is a str; a JSON cell is what the document holds (n is an
    int there).  A header-only table has empty columns.
    """

    columns: dict[str, list]
    meta: Any

    def __getitem__(self, name: str) -> list:
        return self.columns[name]

    def floats(self, name: str) -> list[float]:
        return [float(cell) for cell in self.columns[name]]


@dataclass(frozen=True)
class Run:
    argv: list[str]
    code: int
    out: str
    err: str

    def table(self) -> Table:
        """The table this run wrote; the run must have exited 0."""
        assert self.code == cli.EXIT_OK, (self.code, self.err)
        args = cli.build_parser().parse_args(self.argv)
        text = self.out if args.out is None else args.out.read_text()
        if getattr(args, "format", "csv") == "json":
            doc = json.loads(text)
            header, rows, meta = doc["columns"], doc["rows"], doc["meta"]
        else:
            header, *rows = csv.reader(io.StringIO(text))
            meta = None
            if args.out is not None:
                suffix = ".json" if args.command == "simulate" else args.out.suffix + ".meta.json"
                meta = json.loads(args.out.with_suffix(suffix).read_text())
        return Table({name: [row[i] for row in rows] for i, name in enumerate(header)}, meta)

    def error(self, code: int) -> str:
        """The stderr of this run, which must have exited `code` with nothing on stdout."""
        assert (self.code, self.out) == (code, ""), (self.code, self.out, self.err)
        return self.err


def run(*argv) -> Run:
    """cli.main(argv), each argument (a str or a Path) passed as a str."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return Run(argv, code, out.getvalue(), err.getvalue())
