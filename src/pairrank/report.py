"""Deterministic report rendering: table, csv, json.

Reports carry no timestamps; identical inputs render identical bytes.
Table and csv round numbers to 12 significant digits, json keeps full
precision (shortest round-tripping float strings). Table and json carry
every field; csv carries only the scores and the matrices, so a report
with neither, such as a failed check-qs, renders as one blank line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError


class ScoreEntry(NamedTuple):
    label: str
    score: float
    stderr: float | None = None


@dataclass(frozen=True)
class MatrixBlock:
    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        n = len(self.labels)
        if values.shape != (n, n):
            raise DimensionError(
                f"matrix shape {values.shape} for {n} labels")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class RunReport:
    """One command's complete output.

    scores are already sorted the way they should print (descending score,
    label as tie-break). diagnostics and metadata are flat dicts of scalars;
    insertion order is preserved in every format.
    """

    command: str
    scores: tuple[ScoreEntry, ...] = ()
    method: str | None = None
    alpha: float | None = None
    matrices: dict[str, MatrixBlock] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def render(self, fmt: str) -> str:
        if fmt == "table":
            return self.to_table()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")

    def to_json(self) -> str:
        obj: dict = {"command": self.command}
        if self.method is not None:
            obj["method"] = self.method
        if self.alpha is not None:
            obj["alpha"] = self.alpha
        obj["scores"] = [
            {"label": e.label, "score": float(e.score)}
            if e.stderr is None else
            {"label": e.label, "score": float(e.score),
             "stderr": float(e.stderr)}
            for e in self.scores
        ]
        if self.matrices:
            obj["matrices"] = {
                name: {"labels": list(block.labels),
                       "rows": block.values.tolist()}
                for name, block in self.matrices.items()
            }
        obj["diagnostics"] = self.diagnostics
        obj["metadata"] = self.metadata
        return json.dumps(obj, indent=2, default=_numpy_scalar) + "\n"

    def to_csv(self) -> str:
        # imported here so that a table or json report loads no csv module
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if self.scores:
            has_err = any(e.stderr is not None for e in self.scores)
            writer.writerow(["label", "score", "stderr"] if has_err
                            else ["label", "score"])
            for e in self.scores:
                row = [e.label, _g12(e.score)]
                if has_err:
                    row.append("" if e.stderr is None else _g12(e.stderr))
                writer.writerow(row)
        for name, block in self.matrices.items():
            if buf.tell():
                buf.write("\n")
            buf.write(f"# {name}\n")
            writer.writerow(["", *block.labels])
            for label, row in zip(block.labels, block.values):
                writer.writerow([label, *map(_g12, row)])
        return buf.getvalue() or "\n"

    def to_table(self) -> str:
        lines = [f"command: {self.command}"]
        if self.method is not None:
            lines.append(f"method: {self.method}")
        if self.alpha is not None:
            lines.append(f"alpha: {_g12(self.alpha)}")
        for key, value in self.diagnostics.items():
            lines.append(f"{key}: {_scalar(value)}")
        if self.scores:
            lines.append("")
            width = max(len(e.label) for e in self.scores)
            has_err = any(e.stderr is not None for e in self.scores)
            for e in self.scores:
                line = f"{e.label:<{width}}  {_g12(e.score):>18}"
                if has_err and e.stderr is not None:
                    line += f"  (se {_g12(e.stderr)})"
                lines.append(line)
        for name, block in self.matrices.items():
            lines.append("")
            lines.append(f"{name}:")
            width = max(len(l) for l in block.labels)
            for label, row in zip(block.labels, block.values):
                lines.append(f"  {label:<{width}}  " +
                             " ".join(f"{_g12(v):>18}" for v in row))
        if self.metadata:
            lines.append("")
            for key, value in self.metadata.items():
                lines.append(f"{key}: {_scalar(value)}")
        return "\n".join(lines) + "\n"


def _g12(x) -> str:
    return f"{float(x):.12g}"


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _g12(value)
    return str(value)


def _numpy_scalar(value):
    """json.dumps's hook for the numpy scalars a report may hold."""
    if isinstance(value, np.floating):
        return float(value)  # longdouble.item() is a longdouble again
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def sort_scores(labels, values, stderrs=None) -> tuple[ScoreEntry, ...]:
    """Descending by score, ascending label as the tie-break."""
    entries = []
    for idx, (lab, val) in enumerate(zip(labels, values)):
        err = None if stderrs is None else float(stderrs[idx])
        entries.append(ScoreEntry(str(lab), float(val), err))
    entries.sort(key=lambda e: (-e.score, e.label))
    return tuple(entries)


def load_schema() -> dict:
    """The JSON schema that to_json output validates against."""
    from importlib.resources import files

    text = (files("pairrank") / "schemas" / "report.schema.json").read_text(
        encoding="utf-8")
    return json.loads(text)
