"""Line-oriented text format for instances and results.

A document is UTF-8 text: a `field p=<prime>` header followed by typed
sections.  `#` starts a comment anywhere on a line; blank lines separate
sections.  Sections:

    mat <rows> <cols>      rows of space-separated integers
    polymat <rows> <cols>  one line per row; entries split by ';', each a
                           comma-separated low-to-high coefficient list
                           (an empty entry is the zero polynomial)
    jordan <nblocks>       lines of `<eigenvalue> <size>`
    shift <len>            one line of space-separated nonnegative integers

A `mat` or `polymat` section with zero columns has no row lines, and a
`shift` section of length zero has no value line.  Sections carry their
column count, so matrices with zero rows keep it.

Serialization is canonical (zero polynomials print as `0`), so parsing a
serialized document and serializing again is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import PrimeField, is_prime
from .polymat import PolyMatrix


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Section:
    kind: str  # "mat" | "polymat" | "jordan" | "shift"
    data: object
    cols: int | None = None  # column count of a mat or polymat section


@dataclass
class Document:
    p: int
    sections: list[Section]

    def field(self) -> PrimeField:
        return PrimeField(self.p)

    def section(self, kind: str, skip: int = 0) -> Section:
        found = [s for s in self.sections if s.kind == kind]
        if len(found) <= skip:
            raise ValueError(f"document has no {kind} section (index {skip})")
        return found[skip]

    def first(self, kind: str, skip: int = 0):
        return self.section(kind, skip).data


def _ints(text: str, count: int | None, line: int) -> list[int]:
    parts = text.split()
    try:
        vals = [int(x) for x in parts]
    except ValueError:
        raise ParseError("expected integers", line) from None
    if count is not None and len(vals) != count:
        raise ParseError(f"expected {count} integers, got {len(vals)}", line)
    return vals


def parse_document(text: str) -> Document:
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            lines.append((ln, body.strip()))
    if not lines:
        raise ParseError("empty document", 1)
    ln, header = lines[0]
    if not header.startswith("field p="):
        raise ParseError("expected header 'field p=<prime>'", ln)
    try:
        p = int(header[len("field p="):])
    except ValueError:
        raise ParseError("malformed prime", ln) from None
    if not is_prime(p):
        raise ParseError("p is not prime", ln)
    sections: list[Section] = []
    i = 1
    while i < len(lines):
        ln, head = lines[i]
        words = head.split()
        kind = words[0]
        i += 1

        def take_rows(n: int, cols: int = 1) -> list[tuple[int, str]]:
            """The next n lines; rows of zero columns have no line and read as ''."""
            nonlocal i
            if n < 0:
                raise ParseError(f"section {kind} has a negative count", ln)
            if cols == 0:
                return [(ln, "")] * n
            if i + n > len(lines):
                raise ParseError(f"section {kind} is truncated", ln)
            out = lines[i : i + n]
            i += n
            return out

        if kind == "mat":
            if len(words) != 3:
                raise ParseError("usage: mat <rows> <cols>", ln)
            rows, cols = _ints(" ".join(words[1:]), 2, ln)
            if rows < 0 or cols < 0:
                raise ParseError("negative dimensions", ln)
            data = [
                [v % p for v in _ints(body, cols, rln)]
                for rln, body in take_rows(rows, cols)
            ]
            sections.append(Section("mat", data, cols))
        elif kind == "polymat":
            if len(words) != 3:
                raise ParseError("usage: polymat <rows> <cols>", ln)
            rows, cols = _ints(" ".join(words[1:]), 2, ln)
            grid = []
            for rln, body in take_rows(rows, cols):
                entries = body.split(";") if cols else []
                if len(entries) != cols:
                    raise ParseError(f"expected {cols} entries, got {len(entries)}", rln)
                row = []
                for ent in entries:
                    ent = ent.strip()
                    row.append([] if not ent else _ints(ent.replace(",", " "), None, rln))
                grid.append(row)
            sections.append(Section("polymat", grid, cols))
        elif kind == "jordan":
            if len(words) != 2:
                raise ParseError("usage: jordan <nblocks>", ln)
            (nblocks,) = _ints(words[1], 1, ln)
            blocks = []
            for rln, body in take_rows(nblocks):
                ev, size = _ints(body, 2, rln)
                if size <= 0:
                    raise ParseError("block size must be positive", rln)
                blocks.append((ev % p, size))
            sections.append(Section("jordan", blocks))
        elif kind == "shift":
            if len(words) != 2:
                raise ParseError("usage: shift <len>", ln)
            (count,) = _ints(words[1], 1, ln)
            rln, body = take_rows(1, count)[0]
            vals = _ints(body, count, rln)
            if any(v < 0 for v in vals):
                raise ParseError("shift entries must be nonnegative", rln)
            sections.append(Section("shift", vals))
        else:
            raise ParseError(f"unknown section kind '{kind}'", ln)
    return Document(p, sections)


def _poly_str(coeffs: list[int]) -> str:
    return ",".join(str(c) for c in coeffs) if coeffs else "0"


def serialize_document(doc: Document) -> str:
    out = [f"field p={doc.p}"]
    for sec in doc.sections:
        if sec.kind in ("mat", "polymat") and sec.cols is None:
            raise ValueError(f"{sec.kind} section without its column count")
        if sec.kind == "mat":
            out.append(f"mat {len(sec.data)} {sec.cols}")
            out.extend(" ".join(str(v) for v in row) for row in sec.data if sec.cols)
        elif sec.kind == "polymat":
            out.append(f"polymat {len(sec.data)} {sec.cols}")
            out.extend(";".join(_poly_str(e) for e in row) for row in sec.data if sec.cols)
        elif sec.kind == "jordan":
            out.append(f"jordan {len(sec.data)}")
            out.extend(f"{ev} {size}" for ev, size in sec.data)
        elif sec.kind == "shift":
            out.append(f"shift {len(sec.data)}")
            if sec.data:
                out.append(" ".join(str(v) for v in sec.data))
        else:
            raise ValueError(f"unknown section kind '{sec.kind}'")
    return "\n".join(out) + "\n"


def polymat_section(mat: PolyMatrix) -> Section:
    return Section("polymat", [[e[:] for e in row] for row in mat.rows], mat.ncols)


def polymat_from_section(sec: Section, field: PrimeField) -> PolyMatrix:
    return PolyMatrix(field, [[field.poly(e) for e in row] for row in sec.data], sec.cols)
