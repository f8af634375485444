"""Machine-checkable certificates for the per-basket inequalities.

``proof_replay`` walks every coprime slope b/r <= 1/2 with r up to a bound
and records, for each point with b >= 2, its mediant split together with
the per-j additivity offsets of delta^j across that split.  Points with
b = 1 are the atoms of the induction and are recorded as leaves with
directly evaluated values.  The resulting certificate is a flat, sorted,
deterministic text artifact; ``verify_certificate`` re-checks every node
from scratch (recomputing each delta, xi_bar, and lemma classification)
without trusting any recorded arithmetic.

Node lines look like:

    1/2 leaf xidelta=-2 xibar=0 target=0
    2/5 split 1/2,1/3 cfdet=1 offsets=5:-1,7:-1,10:-2,12:-2 net=0 \
        xidelta=-28 xibar=0 target=0

``offsets`` lists only the nonzero per-j offsets for j in the functional's
support, in ascending j; ``net`` is their coefficient-weighted sum, so that

    xidelta(child) = xidelta(high) + xidelta(low) + net.

The kernel is integer-only.  The builder computes each point's delta
vector (delta^j for j in the support, ``delta_vector``) once.  Each task
walks the mediant tree of a Farey interval row by row: a point is made as
the mediant of two neighbours that the walk holds with their vectors, so
its parents come by construction and its offsets are
``split_offsets(d_child, d_high, d_low)``, with no table and no search for
the parents.  xi_bar is kept as its numerator over 2r and the target as an
integer; ``Fraction`` appears only in the reports and the text fields.
The builder takes xi_bar from the identity xi_bar = xi_delta + xi_lin,
with xi_lin in closed form, and the target from ``point_target``.  The
verifier evaluates each node from the definitions instead, in one walk
over the support (``_node_walk``): with t = jb and s = t mod r, s(r - s)
is 2r*mbar^j, and s(r - s) - t(r - t) over 2r is delta^j, which gives
xi_bar, xi_delta and, with the same definition at both parents, the
offsets; no row is kept from one node to the next.
Through the identity it checks the builder's closed-form ``xi_lin_num``
against those sums, and it takes each target from the header's floor and
the fixed cut 1/12.  What it still shares with the builder is the lemma
vector (``lemma_offsets``), ``xi_lin_num`` and ``split_slope``, whose
parents only name the line it expects and go through the same sum and
unimodularity checks as recorded ones; it checks the node set against
``slopes``, which the builder does not walk, and the reader shares the
point rule (``check_point``).

A certificate is its header values, its node text and its least slack.
Every replay task, in a worker or in this process, returns its node lines,
already written as one text per row and keyed by the row's first (r, b),
and its least-slack summary: the least slack, how many of its nodes attain
it and the first 16 of those (b, r) points.  The parent merges the rows by
(r, b) and joins the texts, takes the least of the slacks, adds up the
tied tasks' counts and keeps the first 16 of their points.
``Certificate.nodes`` reads the text on first access.

``_node_line`` fills the templates of ``_NODE_GRAMMAR``, and the reader takes
exactly that text: it reads each node line with one match of its kind's
template, compiled from the same grammar, whose groups are the node's
values spelled by the ``rationals`` rules, and names the line and the
token of anything else.  The reader takes a file or a buffer one line at
a time, in binary, and decodes each line as ASCII on its own.
``verify_certificate`` checks the node lines as that reader yields them,
from a file or from a certificate's bytes, so it holds no text, line
list, node list, row table or list of points: its least slack is two
integers.  It writes the line it expects for each slope with its own
code, and parses only a line that differs.
"""

from __future__ import annotations

import io
import os
import re
import sys
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from heapq import heappop, heappush
from itertools import compress, groupby, islice
from math import gcd
from operator import itemgetter
from typing import BinaryIO, Iterable, Iterator, NamedTuple, NoReturn

from .baskets import BasketError, check_point
from .functionals import (
    Functional,
    delta_vector,
    lemma_offsets,
    point_target,
    split_offsets,
    xi_lin_num,
)
from .rationals import (
    FRACTION_RULE,
    INT_RULE,
    NAT_RULE,
    SLOPE_RANGE,
    _check_type,
    matched_ratio,
    parse_int,
    slopes,
    split_slope,
)

__all__ = [
    "Certificate",
    "CertificateNode",
    "VerificationReport",
    "proof_replay",
    "verify_certificate",
]

FORMAT_VERSION = 1
# The header lines, in this order, then one blank line and the node lines.
_HEADER_KEYS = (
    "basket3-certificate", "coefficients", "low-slope-floor", "slope-cut", "r-max", "nodes"
)
_HEADER_LINE = "{}: {}"  # key, value
# The header values every certificate has: its format and the slope cut of
# baskets.low_slope, which is fixed, not a parameter.
_FIXED_HEADER = {"basket3-certificate": str(FORMAT_VERSION), "slope-cut": "1/12"}
# The header lines and the blank line after them: node line k is line _HEAD + k.
_HEAD = len(_HEADER_KEYS) + 1
# The values a node line is written with, in the one spelling of each
# number that rationals reads, with one group per value of the node: a
# point b/r is two, b and r.  An offset is j:v with v != 0.
_OFFSET_RULE = f"(?:{INT_RULE}):-?{NAT_RULE}"
_NODE_VALUES = {
    "point": f"({NAT_RULE})/({NAT_RULE})",
    "int": f"({INT_RULE})",
    "fraction": f"({FRACTION_RULE})",
    "offsets": f"(-|{_OFFSET_RULE}(?:,{_OFFSET_RULE})*)",
}
# The node-line grammar, written once: each line kind's tokens, one space
# apart, with each {value} one of _NODE_VALUES.  Each kind's template is
# compiled from it, and _reject_node_line walks it token by token.
_NODE_GRAMMAR = {
    "split": "{point} split {point},{point} cfdet={int} offsets={offsets} net={int}"
    " xidelta={int} xibar={fraction} target={int}",
    "leaf": "{point} leaf xidelta={int} xibar={fraction} target={int}",
}


def _template_rule(template: str) -> str:
    """The regex of a template: each {value} its groups, the rest literal."""
    parts = re.split(r"\{(\w+)\}", template)
    return "".join(
        _NODE_VALUES[part] if i % 2 else re.escape(part) for i, part in enumerate(parts)
    )


# A match of a kind's template has the node's values as its groups, in the
# order of the node's fields.
_SPLIT_LINE, _LEAF_LINE = (
    re.compile(_template_rule(_NODE_GRAMMAR[kind])) for kind in ("split", "leaf")
)
# The writer fills the same templates as %-formats, each line with its
# newline: a point from its two integers, every other value as it is.
_VALUE_FORMATS = {"point": "%d/%d", "int": "%d", "fraction": "%s", "offsets": "%s"}
_SPLIT_FORMAT, _LEAF_FORMAT = (
    re.sub(r"\{(\w+)\}", lambda m: _VALUE_FORMATS[m[1]], _NODE_GRAMMAR[kind]) + "\n"
    for kind in ("split", "leaf")
)
# Every value is built of integers, points and offsets joined by ","; a
# malformed one is named by its first piece that is none of them.  Only
# errors use it, so it is left to re's cache rather than compiled here.
_PIECE_RULE = f"{INT_RULE}|{_NODE_VALUES['point']}|{_OFFSET_RULE}"


class CertificateNode(NamedTuple):
    """One point b/r of the sweep: either an atom or a recorded mediant split.

    Every field is a plain value.  ``b_hi/r_hi`` and ``b_lo/r_lo`` are the
    high and low parents of a split; they and ``cf_det`` are None at an
    atom.  ``xi_num`` is xi_bar times 2r and ``target_int`` the integer
    target.
    """

    b: int
    r: int
    b_hi: int | None
    r_hi: int | None
    b_lo: int | None
    r_lo: int | None
    cf_det: int | None
    offsets: tuple[tuple[int, int], ...]
    net_offset: int
    xi_delta: int
    xi_num: int
    target_int: int


# A node from a tuple of its twelve fields, made by the C-level tuple
# constructor: the namedtuple's own __new__ and _make are Python calls, and
# every node is made here, by the reader.
_new_node = partial(tuple.__new__, CertificateNode)
# How many of the points attaining the least slack a summary keeps, the
# first in (r, b) order: as many as ``replay`` prints.
_SHOWN = 16
# The least slack of a set of nodes, how many nodes attain it and the first
# _SHOWN of those (b, r) points in (r, b) order; (None, 0, ()) for no nodes.
_SlackSummary = tuple[Fraction | None, int, tuple[tuple[int, int], ...]]
# A replay task's result: its (r, b of the first slope, node lines) rows and
# its least slack as (numerator, denominator, count, first points).
_TaskResult = tuple[
    list[tuple[int, int, bytes]], tuple[int, int, int, list[tuple[int, int]]]
]


@dataclass(frozen=True)
class Certificate:
    """A full sweep up to r_max for one functional and target rule.

    ``text`` is the node lines in ASCII, in canonical (r, b) order, and
    ``least_slack`` is ``(least, count, first)``: the least recorded slack
    of those nodes, how many nodes attain it and the first 16 of those
    (b, r) points, in the order of the text (``(None, 0, ())`` without
    nodes), as ``proof_replay`` or the reader found them.  ``r_max`` and
    ``low_slope_floor`` must be exact ints, with r_max >= 2: the header
    values the reader takes back.  ``text`` must be ASCII ``bytes``, empty
    or ending in a newline, so that the header's ``nodes`` count is its
    number of lines.
    """

    functional: Functional
    r_max: int
    low_slope_floor: int
    text: bytes = field(repr=False)
    least_slack: _SlackSummary

    def __post_init__(self) -> None:
        _check_type("r_max", self.r_max, (int,))
        _check_type("low_slope_floor", self.low_slope_floor, (int,))
        if self.r_max < 2:
            raise ValueError(f"r_max must be at least 2, got {self.r_max}")
        _check_type("text", self.text, (bytes,))
        if not self.text.isascii():
            raise ValueError("text must be ASCII")
        if self.text and not self.text.endswith(b"\n"):
            raise ValueError("text must end in a newline")

    @property
    def node_count(self) -> int:
        """The number of node lines, as the header's ``nodes:`` gives it."""
        return self.text.count(b"\n")

    @cached_property
    def nodes(self) -> tuple[CertificateNode, ...]:
        """The nodes of the text, read on first access and then kept."""
        lines = self.text.decode("ascii").splitlines()
        return tuple(_read_nodes(lines, self.node_count))

    def _header(self) -> bytes:
        """The header lines and the blank line after them, in ASCII."""
        header = {
            **_FIXED_HEADER,
            "coefficients": ",".join(map(str, self.functional.coeffs)),
            "low-slope-floor": self.low_slope_floor,
            "r-max": self.r_max,
            "nodes": self.node_count,
        }
        lines = [_HEADER_LINE.format(key, header[key]) for key in _HEADER_KEYS]
        return ("\n".join(lines) + "\n\n").encode("ascii")

    def to_text(self) -> str:
        return (self._header() + self.text).decode("ascii")

    @classmethod
    def from_text(cls, text: str) -> "Certificate":
        """Read a certificate; text that ``to_text`` would not write is refused.

        The text is read as its UTF-8 bytes, so a character that is not
        ASCII is named with its line, as in a file.
        """
        return cls._read(io.BytesIO(text.encode("utf-8", "surrogatepass")))

    def write(self, path: str | os.PathLike) -> None:
        with open(path, "wb") as fh:
            fh.write(self._header())
            fh.write(self.text)

    @classmethod
    def read(cls, path: str | os.PathLike) -> "Certificate":
        return cls._read(path)

    @classmethod
    def _read(cls, source: str | os.PathLike | BinaryIO) -> "Certificate":
        """The certificate of a file or binary buffer, every line of it read.

        The node text is kept as the bytes that were read, which the reader
        has found to be the ones ``to_text`` writes.
        """
        with _certificate_file(source) as fh:
            lines = _lines(fh)
            header = _read_header(lines)
            start = fh.tell()
            least = _LeastSlack()
            least.update((n, _recorded_slack(n)) for n in _read_nodes(lines, header["nodes"]))
            fh.seek(start)
            text = fh.read()
        return cls(
            header["coefficients"], header["r-max"], header["low-slope-floor"],
            text, least.summary(),
        )


def _read_header(lines: Iterator[str]) -> dict:
    """The header values, from the first lines, and the blank line after them.

    Takes exactly those lines from ``lines``; a line that is not there reads
    as "".
    """
    header = {}
    for number, key in enumerate(_HEADER_KEYS, start=1):
        line = next(lines, "")
        prefix = _HEADER_LINE.format(key, "")
        if not line.startswith(prefix):
            raise ValueError(
                f"certificate line {number}: want the {key!r} header, got {line!r}"
            )
        value = line[len(prefix):]
        if value != _FIXED_HEADER.get(key, value):
            raise ValueError(f"certificate line {number}: unsupported {key} {value!r}")
        if key in _HEADER_VALUES:
            try:
                header[key] = _HEADER_VALUES[key](value)
            except ValueError as exc:
                raise ValueError(f"certificate line {number}: {exc}") from None
    if next(lines, None) != "":
        raise ValueError(
            f"certificate line {_HEAD}: want the blank line after the header"
        )
    return header


def _read_nodes(lines: Iterable[str], declared: int) -> Iterator[CertificateNode]:
    """The nodes of the lines after the header, read one line at a time.

    Once the lines run out, their count is checked against the header's
    ``declared`` one, so a bad line is named before a wrong count.
    """
    count = 0
    for count, line in enumerate(lines, start=1):
        yield _read_node(line, count)
    _check_count(count, declared)


def _read_node(line: str, count: int) -> CertificateNode:
    """The node of the ``count``-th node line; its error names the certificate line."""
    try:
        return _parse_node_line(line)
    except ValueError as exc:
        raise ValueError(f"certificate line {_HEAD + count}: {exc}") from None


def _check_count(count: int, declared: int) -> None:
    """Refuse a node count other than the header's ``declared`` one."""
    if count != declared:
        raise ValueError(
            f"certificate line {_HEADER_KEYS.index('nodes') + 1}: "
            f"node count {count} != declared {declared}"
        )


@contextmanager
def _certificate_file(source: str | os.PathLike | BinaryIO) -> Iterator[BinaryIO]:
    """A certificate file or binary buffer, ready for binary reading at its start.

    A path is opened, and closed on exit.  A text that does not end in a
    newline is refused before any line is read, from its last byte alone;
    only then are its lines counted, to name the last one.  A file that
    cannot seek, such as a pipe, is read whole first.  Binary reading keeps
    "\\r\\n" as written, so the reader refuses it.
    """
    is_buffer = isinstance(source, io.BufferedIOBase)
    with nullcontext(source) if is_buffer else open(source, "rb") as fh:
        if not fh.seekable():
            fh = io.BytesIO(fh.read())
        size = fh.seek(0, os.SEEK_END)
        if size:
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                fh.seek(0)
                raise ValueError(
                    f"certificate line {sum(1 for _ in fh)}: no newline at its end"
                )
        fh.seek(0)
        yield fh


def _lines(fh: BinaryIO) -> Iterator[str]:
    """The lines of a certificate file, each decoded as ASCII without its newline.

    Every line ends in one, as ``_certificate_file`` has checked.  A byte
    that is not ASCII is named with its line.
    """
    for number, line in enumerate(fh, start=1):
        try:
            text = line[:-1].decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueError(f"certificate line {number}: {exc}") from None
        yield text


def _file_points(fh: BinaryIO) -> Iterator[tuple[int, int]]:
    """(b, r) of each node line, read again from a file whose lines all read."""
    fh.seek(0)
    for line in islice(fh, _HEAD, None):
        b, r = line[:line.index(b" ")].split(b"/")
        yield int(b), int(r)


def _coefficients(value: str) -> Functional:
    """The ``coefficients`` header: integers, the last one nonzero."""
    coeffs = tuple(map(parse_int, value.split(",")))
    func = Functional(coeffs)
    if func.coeffs != coeffs:
        raise ValueError(f"coefficients {value!r} end in a zero")
    return func


def _r_max(value: str) -> int:
    """The ``r-max`` header: an integer of at least 2, as every replay's is."""
    r_max = parse_int(value)
    if r_max < 2:
        raise ValueError(f"r-max {value!r} is below 2")
    return r_max


# How the reader takes each header value that is not fixed.
_HEADER_VALUES = {
    "coefficients": _coefficients,
    "low-slope-floor": parse_int,
    "r-max": _r_max,
    "nodes": parse_int,
}


class _LeastSlack:
    """The least slack of the nodes seen so far, how many attain it, the first 16.

    Each slack is a numerator over 2r.  Slacks are compared by
    cross-multiplication, so only the summary is a ``Fraction``.  Of the
    points attaining the least slack it keeps the first ``_SHOWN`` (b, r)
    in the order they come and the count of all; no nodes give
    ``(None, 0, ())``.
    """

    __slots__ = ("num", "den", "count", "first")

    def __init__(self) -> None:
        self.num, self.den, self.count = 0, 0, 0
        self.first: list[tuple[int, int]] = []

    def update(self, slacks: Iterable[tuple[tuple, int]]) -> None:
        """Take in more (node or record, its slack) pairs."""
        best_num, best_den, count, first = self.num, self.den, self.count, self.first
        for node, num in slacks:
            den = 2 * node[1]
            if not count or num * best_den < best_num * den:
                best_num, best_den, count, first = num, den, 1, [node[:2]]
            elif num * best_den == best_num * den:
                count += 1
                if count <= _SHOWN:
                    first.append(node[:2])
        self.num, self.den, self.count, self.first = best_num, best_den, count, first

    def summary(self) -> _SlackSummary:
        if not self.count:
            return None, 0, ()
        return Fraction(self.num, self.den), self.count, tuple(self.first)


def _recorded_slack(node: tuple) -> int:
    """The recorded slack xi_num - 2r * target_int of a node or a record."""
    return node[10] - 2 * node[1] * node[11]


def _node_line(node: CertificateNode) -> str:
    """A node's line, with its newline; a replay task's record is written alike."""
    b, r, b_hi, r_hi, b_lo, r_lo, cf_det, offsets, net, xd, xi, target = node
    den = 2 * r
    g = gcd(xi, den)
    xibar = f"{xi // g}" if g == den else f"{xi // g}/{den // g}"
    if b_hi is None:
        return _LEAF_FORMAT % (b, r, xd, xibar, target)
    # Nearly every split has no offsets; skip the join for those.
    offs = ",".join([f"{j}:{v}" for j, v in offsets]) if offsets else "-"
    return _SPLIT_FORMAT % (
        b, r, b_hi, r_hi, b_lo, r_lo, cf_det, offs, net, xd, xibar, target
    )


def _xi_num(text: str, r: int) -> int:
    """The matched ``xibar=`` value read as a numerator over 2r."""
    num, den = matched_ratio(text)
    scale, rem = divmod(2 * r, den)
    if rem:
        raise ValueError(f"xibar {text!r} is not a fraction over 2r = {2 * r}")
    return num * scale


def _not_a_point(*points: tuple[int, int]) -> ValueError:
    """The error for the first of a node line's points that ``check_point`` refuses."""
    for b, r in points:
        try:
            check_point(b, r)
        except BasketError as exc:
            return ValueError(f"'{b}/{r}' is not a basket point: {exc}")


def _offsets(text: str) -> tuple[tuple[int, int], ...]:
    """The ``offsets=`` pairs, which must have strictly ascending j."""
    if text == "-":
        return ()
    offsets = tuple(
        (int(j), int(v)) for j, v in (item.split(":") for item in text.split(","))
    )
    if any(a[0] >= b[0] for a, b in zip(offsets, offsets[1:])):
        raise ValueError(f"offsets {text!r} are not in strictly ascending j")
    return offsets


def _parse_node_line(line: str) -> CertificateNode:
    """One node line, read with one match of its kind's template.

    Each value is converted once, from its group of the match.
    """
    if match := _SPLIT_LINE.fullmatch(line):
        b, r, b_hi, r_hi, b_lo, r_lo, cf_det, offsets, net, xd, xibar, target = (
            match.groups()
        )
        b, r, b_hi, r_hi, b_lo, r_lo = map(int, (b, r, b_hi, r_hi, b_lo, r_lo))
        try:
            check_point(b, r)
            check_point(b_hi, r_hi)
            check_point(b_lo, r_lo)
        except BasketError:
            raise _not_a_point((b, r), (b_hi, r_hi), (b_lo, r_lo)) from None
        cf_det, offsets, net = int(cf_det), _offsets(offsets), int(net)
    elif match := _LEAF_LINE.fullmatch(line):
        b, r, xd, xibar, target = match.groups()
        b, r = int(b), int(r)
        try:
            check_point(b, r)
        except BasketError:
            raise _not_a_point((b, r)) from None
        b_hi = r_hi = b_lo = r_lo = cf_det = None
        offsets, net = (), 0
    else:
        _reject_node_line(line)
    return _new_node((
        b, r, b_hi, r_hi, b_lo, r_lo, cf_det, offsets, net,
        int(xd), _xi_num(xibar, r), int(target),
    ))


def _bad_piece(value: str) -> str:
    """The first malformed piece of a value, down to a j or v of an offset."""
    for piece in value.split(","):
        if re.fullmatch(_PIECE_RULE, piece) is None:
            bad = (p for p in piece.split(":") if re.fullmatch(_PIECE_RULE, p) is None)
            return next(bad, piece)
    return value


def _reject_node_line(line: str) -> NoReturn:
    """Raise the error for a node line the grammar refused, naming the bad token.

    Walks the line against the same templates, token by token.
    """
    if not line:
        raise ValueError("blank line among the node lines")
    tokens = line.split(" ")
    kind = tokens[1] if len(tokens) > 1 else ""
    # Every kind starts with the point, so a bad point is named first.
    wants = _NODE_GRAMMAR.get(kind, "{point}").split(" ")
    for token, want in zip(tokens, wants):
        if re.fullmatch(_template_rule(want), token) is not None:
            continue
        prefix = want.partition("{")[0]
        if not token.startswith(prefix):
            raise ValueError(f"unexpected node field {token!r}; want {want!r}")
        bad = _bad_piece(token[len(prefix):])
        raise ValueError(
            f"malformed value {bad!r} in node field {token!r}; want {want!r}"
        )
    if kind not in _NODE_GRAMMAR:
        raise ValueError(f"unknown node kind {kind!r}")
    if len(tokens) < len(wants):
        raise ValueError(f"missing node field {wants[len(tokens)]!r}")
    if len(tokens) > len(wants):
        raise ValueError(f"unexpected node field {tokens[len(wants)]!r}")
    raise ValueError(f"malformed node line {line!r}")


def _nonzero(support, offs) -> tuple[tuple[int, int], ...]:
    """The (j, offset) pairs with a nonzero offset, in ascending j."""
    return tuple(compress(zip(support, offs), offs)) if any(offs) else ()


def _contradictions(support, offs, predicted):
    """(j, observed, predicted) wherever the lemma vector predicts another offset.

    A None entry predicts nothing, so ``offs != predicted`` with no
    contradiction means the offsets differ only where neither lemma applies.
    """
    return [
        (j, off, want)
        for j, off, want in zip(support, offs, predicted)
        if want is not None and off != want
    ]


def _records(func: Functional, floor: int, r_max: int, interval) -> Iterator[tuple]:
    """One plain record per slope of ``interval`` with r <= r_max, by (r, b).

    A record holds the fields of a ``CertificateNode``, in its order.  The
    interval's ends lo, top are Farey neighbours, so its slopes are top and
    the mediant tree of the pair (lo, top): each is the mediant of two
    neighbours that the walk already holds, and those are its parents.
    ``pending[r]`` holds the pairs whose mediant has index r, as (b of the
    mediant, high end, its row, low end, its row), so a split reads its
    parents and their delta rows from its pair.  Only top has parents
    outside the interval, which ``split_slope`` gives; lo's row is computed
    only when a split inside needs it, and 0/1's is never read, since only
    atoms have it as an end.
    """
    support, weigh = func.support, func.weigh
    lo, top = interval
    b, r_top = top
    d_lo = None
    if b == 1:
        parents = None, None, None, None
    else:
        hi, low, _ = split_slope(b, r_top)
        d_hi, d_low = delta_vector(func, *hi), delta_vector(func, *low)
        parents = hi, d_hi, low, d_low
        if low == lo:
            d_lo = d_low
    if lo[0] and d_lo is None and lo[1] + r_top <= r_max:
        d_lo = delta_vector(func, *lo)
    pending: list = [[] for _ in range(r_max + 1)]
    pending[r_top].append((b, *parents))
    for r in range(r_top, r_max + 1):
        bucket = pending[r]
        pending[r] = None
        bucket.sort()
        for b, hi, d_hi, low, d_low in bucket:
            d = delta_vector(func, b, r)
            xd = weigh(d)
            # xi_bar = xi_delta + xi_lin; the verifier evaluates it by definition.
            xi = 2 * r * xd + xi_lin_num(func, b, r)
            target = point_target(floor, b, r)
            if b == 1:
                yield b, r, None, None, None, None, None, (), 0, xd, xi, target
            else:
                offs = split_offsets(d, d_hi, d_low)
                predicted = lemma_offsets(hi[1], low[1], support)
                if offs != predicted:
                    for j, off, want in _contradictions(support, offs, predicted):
                        raise ArithmeticError(
                            f"offset {off} at j={j} contradicts lemma value {want} "
                            f"for split {b}/{r} -> {hi[0]}/{hi[1]}, {low[0]}/{low[1]}"
                        )
                offsets = _nonzero(support, offs)
                net = weigh(offs) if offsets else 0
                cf_det = 1 if 2 * hi[1] < r else -1
                yield b, r, *hi, *low, cf_det, offsets, net, xd, xi, target
            if r == r_top:  # inside the interval, top ends one pair: (lo, top)
                hi, low, d_low = None, lo, d_lo
            point = b, r
            if r + low[1] <= r_max:
                pending[r + low[1]].append((low[0] + b, point, d, low, d_low))
            if hi and r + hi[1] <= r_max:
                pending[r + hi[1]].append((b + hi[0], hi, d_hi, point, d))


def _intervals(r_max: int, count: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Intervals (lo, hi] that tile (0/1, 1/2], widest first.

    Each is a ``((b, r), (b, r))`` pair of Farey neighbours.  Starting from
    the whole range, the widest interval, that of the least product of its
    ends' indices, is split at its mediant, unless the mediant's index is
    above r_max.  Splitting stops at ``count`` intervals, or at r_max - 1,
    since every task walks the rows from its right end's index up to r_max
    and computes up to three vectors from outside it; the result depends
    on r_max and count alone.
    """
    count = min(count, r_max - 1)
    lo, hi = SLOPE_RANGE
    splittable = [(lo[1] * hi[1], lo, hi)]
    final = []
    while splittable and len(splittable) + len(final) < count:
        width, lo, hi = heappop(splittable)
        mid = (lo[0] + hi[0], lo[1] + hi[1])
        if mid[1] > r_max:
            final.append((width, lo, hi))
            continue
        heappush(splittable, (lo[1] * mid[1], lo, mid))
        heappush(splittable, (mid[1] * hi[1], mid, hi))
    return [(lo, hi) for _, lo, hi in sorted(splittable + final)]


def _build_range(args) -> _TaskResult:
    """A replay task, in a worker or in this process: one interval's node text.

    Returns the interval's rows in (r, b) order, each as (r, b of its first
    slope, its node lines in ASCII), and the least slack as (numerator,
    denominator, count of the attaining points, the first ``_SHOWN`` of them
    in (r, b) order).  Both are plain data, so no class crosses the pool.
    """
    coeffs, floor, r_max, lo, hi = args
    records = list(_records(Functional(coeffs), floor, r_max, (lo, hi)))
    least = _LeastSlack()
    least.update((record, _recorded_slack(record)) for record in records)
    rows = []
    for r, row in groupby(records, itemgetter(1)):
        row = list(row)
        rows.append((r, row[0][0], "".join(map(_node_line, row)).encode("ascii")))
    return rows, (least.num, least.den, least.count, least.first)


def __getattr__(name: str):
    """The module's ``ProcessPoolExecutor``, imported when it is first read.

    ``concurrent.futures`` loads multiprocessing, socket, pickle, logging
    and more, which no one-worker command uses, so the package does not
    import it (PEP 562).  A value assigned to the attribute shadows this,
    and the next pool is made from whatever the attribute names then.
    """
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor


def ordered_map(fn, tasks: Iterable, workers: int, per_worker: int) -> Iterator:
    """``map(fn, tasks)``, run by ``workers`` processes unless that is one.

    One worker is the builtin ``map``, in this process.  Otherwise the
    tasks are taken in windows of ``workers * per_worker``, each one
    ``pool.map`` call on a pool made from this module's
    ``ProcessPoolExecutor``, and each window is submitted before the one
    ahead of it is yielded, so at most two are in flight.  Results come in
    task order.  However the generator ends, the pool is shut down with
    its queued tasks cancelled.
    """
    if workers == 1:
        yield from map(fn, tasks)
        return
    tasks = iter(tasks)
    windows = iter(lambda: list(islice(tasks, workers * per_worker)), [])
    pool = sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)
    try:
        results = ()
        for window in windows:
            submitted = pool.map(fn, window)
            yield from results
            results = submitted
        yield from results
    finally:
        pool.shutdown(cancel_futures=True)


def proof_replay(
    func: Functional,
    r_max: int,
    *,
    low_slope_floor: int = 0,
    jobs: int = 1,
) -> Certificate:
    """Build the certificate for all coprime b/r <= 1/2 with r <= r_max.

    ``r_max``, ``low_slope_floor`` and ``jobs`` must be exact ints, with
    r_max >= 2 and jobs >= 1, checked before any task runs.  The text is
    identical for any ``jobs``.  At most min(jobs, CPUs, tasks) workers
    run, and work is cut into up to eight Farey intervals of slopes per
    worker (and at most r_max - 1), sent widest first, so no task needs a
    parent that another task builds.  Each task walks its interval's
    mediant tree row by row.  ``ordered_map`` runs the tasks, in this
    process with no pool at one worker, and ``_merge`` sorts their rows.
    """
    for name, value in (("r_max", r_max), ("low_slope_floor", low_slope_floor), ("jobs", jobs)):
        _check_type(name, value, (int,))
    if r_max < 2:
        raise ValueError(f"r_max must be at least 2, got {r_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1)
    intervals = _intervals(r_max, workers * 8)
    workers = min(workers, len(intervals))
    tasks = [(func.coeffs, low_slope_floor, r_max, lo, hi) for lo, hi in intervals]
    # A window of 8 tasks per worker holds every task: one map call.
    with closing(ordered_map(_build_range, tasks, workers, 8)) as parts:
        text, least = _merge(parts)
    return Certificate(func, r_max, low_slope_floor, text, least)


def _merge(parts: Iterable[_TaskResult]) -> tuple[bytes, _SlackSummary]:
    """The node text in canonical order, and the least slack of all tasks.

    ``parts`` are the tasks' results, in any order.  No two tasks share a
    point, so their (r, b, text) rows sort on (r, b) alone into canonical
    order.  The least slack is the least of the tasks' by
    cross-multiplication; its count is the sum of the tied tasks' counts,
    and its points the first ``_SHOWN`` of theirs by (r, b).  Each task's
    rows and points come in (r, b) order, so each sort merges those runs.
    """
    rows, num, den, count, first = [], 0, 0, 0, []
    for task_rows, (task_num, task_den, task_count, task_first) in parts:
        rows += task_rows
        if not count or task_num * den < num * task_den:
            num, den, count, first = task_num, task_den, task_count, task_first
        elif task_num * den == num * task_den:
            count += task_count
            first = sorted(first + task_first, key=itemgetter(1, 0))[:_SHOWN]
    rows.sort()
    text = b"".join([row[2] for row in rows])
    return text, (Fraction(num, den), count, tuple(first))


# The low end of the slope range, 0/1, where every delta^j is 0: an atom
# walks against it in place of both parents.
_ORIGIN = SLOPE_RANGE[0]


def _node_walk(
    support: tuple[int, ...],
    weights: tuple[int, ...],
    b: int,
    r: int,
    hi: tuple[int, int],
    lo: tuple[int, int],
) -> tuple[int, int, tuple[int, ...]]:
    """The verifier's values at b/r, in one walk over the support, by definition.

    Per j, with t = jb and s = t mod r: 2r*mbar^j = s(r - s) and
    2r*delta^j = s(r - s) - t(r - t), which 2r divides, since t = s (mod r).
    The same definition gives delta^j at the parents ``hi`` and ``lo``,
    each a point (b, r), so no row outlives the walk.  Returns (2r*xi_bar,
    xi_delta, offsets), where the offsets are delta^j at b/r less delta^j
    at each parent.
    """
    two_r = 2 * r
    b_hi, r_hi = hi
    b_lo, r_lo = lo
    two_hi, two_lo = 2 * r_hi, 2 * r_lo
    offs = []
    xi = xd = 0
    for j, c in zip(support, weights):
        t = j * b
        s = t % r
        u = s * (r - s)
        dj = (u - t * (r - t)) // two_r
        t_hi = j * b_hi
        s_hi = t_hi % r_hi
        t_lo = j * b_lo
        s_lo = t_lo % r_lo
        offs.append(
            dj
            - (s_hi * (r_hi - s_hi) - t_hi * (r_hi - t_hi)) // two_hi
            - (s_lo * (r_lo - s_lo) - t_lo * (r_lo - t_lo)) // two_lo
        )
        xi += c * u
        xd += c * dj
    return xi, xd, tuple(offs)


def _own_node(
    func: Functional,
    floor: int,
    b: int,
    r: int,
    hi: tuple[int, int] | None,
    lo: tuple[int, int] | None,
) -> tuple[tuple, tuple[int, ...]]:
    """The node the verifier makes at b/r, split at ``hi``, ``lo`` or an atom (None).

    Every value is its own: one ``_node_walk`` for xi_bar, xi_delta and the
    offsets, the target from the header's floor and the fixed slope cut
    1/12, cfdet from the parents' indices.  Returns the node's twelve
    fields, in the order of a ``CertificateNode``, and its offset at every
    j of the support.
    """
    support = func.support
    xi, xd, offs = _node_walk(support, func.weights, b, r, hi or _ORIGIN, lo or _ORIGIN)
    target = floor * b if 12 * b <= r else 0
    if hi is None:
        return (b, r, None, None, None, None, None, (), 0, xd, xi, target), offs
    nonzero = _nonzero(support, offs)
    net = func.weigh(offs) if nonzero else 0
    cf_det = 1 if 2 * hi[1] < r else -1
    return (b, r, *hi, *lo, cf_det, nonzero, net, xd, xi, target), offs


def _own_line(node: tuple) -> str:
    """The canonical line of a node's values, with its newline.

    The verifier's own spelling of each value, filled into the grammar's
    templates: it never calls the builder's ``_node_line``, so a fault of
    that writer is not shared.  xibar is xi_num over 2r in lowest terms, a
    bare integer when the denominator is 1.
    """
    b, r, b_hi, r_hi, b_lo, r_lo, cf_det, offsets, net, xd, xi, target = node
    two_r = 2 * r
    g = gcd(xi, two_r)
    xibar = "%d" % (xi // g) if g == two_r else "%d/%d" % (xi // g, two_r // g)
    if b_hi is None:
        return _LEAF_FORMAT % (b, r, xd, xibar, target)
    offs = ",".join(["%d:%d" % pair for pair in offsets]) if offsets else "-"
    return _SPLIT_FORMAT % (
        b, r, b_hi, r_hi, b_lo, r_lo, cf_det, offs, net, xd, xibar, target
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an independent re-check of a certificate."""

    nodes: int
    min_slack: Fraction | None
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(cert: Certificate | str | os.PathLike) -> VerificationReport:
    """Re-check every node of a certificate, or of a certificate file, from scratch.

    Structural checks: the node set covers exactly the coprime slopes up
    to r_max, in canonical order, the parents of every split come before
    it, and its cfdet is +1 exactly when the high parent has the smaller
    index.  Arithmetic checks, all recomputed independently of the
    recorded values: xi_bar, xi_delta, targets, per-j offsets with their
    lemma classification, and the additivity identity through each split.
    Finally every node must satisfy xi_bar >= target.

    A file, or a certificate's bytes, is read by the reader of
    ``Certificate.read``, one line at a time, and the nodes are checked as
    they are read.  No text, list of lines, nodes or points, or table of
    rows is held, so the memory of a check of the nodes in canonical order
    does not grow with them.  Its reader errors are raised as
    ``Certificate.read`` raises them, the first in file order.
    """
    if isinstance(cert, Certificate):
        cert = io.BytesIO(cert._header() + cert.text)
    with _certificate_file(cert) as fh:
        lines = _lines(fh)
        header = _read_header(lines)
        return _verify(
            header["coefficients"], header["r-max"], header["low-slope-floor"],
            header["nodes"], lines, fh,
        )


def _coverage(keys: list[tuple[int, int]], r_max: int) -> list[str]:
    """The coverage issues of nodes at ``keys`` (r, b).

    The extra points are those above r_max; the walk for missing ones
    reads at most nodes + 5 slopes.
    """
    issues = []
    recorded = set(keys)
    if keys != sorted(keys) or len(recorded) != len(keys):
        issues.append("nodes are not in canonical order or contain repeats")
    unrecorded = ((b, r) for b, r in slopes(2, r_max) if (r, b) not in recorded)
    missing = [f"{b}/{r}" for b, r in islice(unrecorded, 5)]
    extras = sorted(k for k in recorded if k[0] > r_max)
    extra = [f"{b}/{r}" for r, b in extras[:5]]
    if missing or extra:
        issues.append(f"coverage mismatch: missing {missing}, extra {extra}")
    return issues


def _verify(
    func: Functional,
    r_max: int,
    floor: int,
    declared: int,
    lines: Iterator[str],
    fh: BinaryIO,
) -> VerificationReport:
    """The check of ``verify_certificate``, over the node lines ``lines`` yields.

    It holds the running least slack, the issues, the node count and the
    slope walk ``slopes(2, r_max)``, which every node so far has followed;
    no row outlives its node's walk.  While the nodes follow the walk, the
    check makes the next slope's node itself, split at its ``split_slope``
    parents (``_own_node``), and writes its line (``_own_line``): a line
    with exactly those bytes is that node and is not parsed.  Any other
    line goes through the reader, with its errors, and the check makes the
    node at the point and parents the line records.  Either way the
    recorded fields are only compared with the check's values, in the same
    checks.  While the nodes follow the walk, a parent was read iff it is a
    slope with a smaller (r, b); once one does not, the check keeps the set
    of points read, and at the end it reads the points of the file ``fh``
    again for the coverage issues, which come first.  Values are compared
    as integers over 2r, and the least slack is kept as two of them.
    """
    issues: list[str] = []
    expected = slopes(2, r_max)
    seen: set[tuple[int, int]] | None = None
    count = least_num = least_den = 0
    support = func.support
    for line in lines:
        count += 1
        own = None
        if seen is None and (point := next(expected, None)) is not None:
            b, r = point
            hi, lo, _ = split_slope(b, r) if b > 1 else (None, None, None)
            own, offs = _own_node(func, floor, b, r, hi, lo)
            if _own_line(own) != line + "\n":
                own = None
        if own is None:
            node = _read_node(line, count)
            if seen is None and node[:2] != point:
                # The nodes before this one were the slopes before `point`.
                seen = set(islice(slopes(2, r_max), count - 1))
            hi, lo = (node[2:4], node[4:6]) if node[2] is not None else (None, None)
            own, offs = _own_node(func, floor, *node[:2], hi, lo)
        else:
            node = own
        # The names ending in _rec are the node's recorded fields, which
        # are only ever compared with the recomputed values of `own`.  A
        # line that was not parsed is `own`, so those comparisons hold.
        (b, r, b_hi, r_hi, b_lo, r_lo, cf_det_rec, offsets_rec, net_rec,
         xd_rec, xi_rec, target_rec) = node
        _, _, _, _, _, _, cf_det, nonzero, net, xd, xi, target = own
        if seen is None:
            # Every node so far was the next slope, and a parent the
            # reader took is a slope, so it was read iff it comes first.
            missing = b_hi is None or (r_hi, b_hi) >= (r, b) or (r_lo, b_lo) >= (r, b)
        else:
            missing = (b_hi, r_hi) not in seen or (b_lo, r_lo) not in seen
            seen.add((b, r))
        two_r = 2 * r
        if xi_rec != xi:
            issues.append(
                f"{b}/{r}: recorded xibar {Fraction(xi_rec, two_r)}"
                f" != {Fraction(xi, two_r)}"
            )
        if xd_rec != xd:
            issues.append(f"{b}/{r}: recorded xidelta {xd_rec} != {xd}")
        if xi != two_r * xd + xi_lin_num(func, b, r):
            issues.append(f"{b}/{r}: xi_bar != xi_delta + xi_lin")
        slack = xi - two_r * target
        if not least_den or slack * least_den < least_num * two_r:
            least_num, least_den = slack, two_r
        if target_rec != target:
            issues.append(f"{b}/{r}: recorded target {target_rec} != {target}")
        if slack < 0:
            issues.append(
                f"{b}/{r}: violation, xibar {Fraction(xi, two_r)} < target {target}"
            )
        if b_hi is None:
            if b != 1:
                issues.append(f"{b}/{r}: non-atom recorded as leaf")
            continue
        if b_hi + b_lo != b or r_hi + r_lo != r:
            issues.append(
                f"{b}/{r}: parents {b_hi}/{r_hi}, {b_lo}/{r_lo} do not sum to the point"
            )
            continue
        unimodular = b_hi * r_lo - b_lo * r_hi == 1
        if not unimodular:
            issues.append(f"{b}/{r}: parents are not unimodular in (high, low) order")
        if cf_det_rec != cf_det:
            issues.append(f"{b}/{r}: recorded cfdet {cf_det_rec} != {cf_det}")
        if missing:
            issues.append(f"{b}/{r}: parents missing from the certificate before it")
            continue
        if offsets_rec != nonzero:
            # The reader takes only nonzero offsets in ascending j, so
            # two lists that differ differ at some j.
            recorded = dict(offsets_rec)
            for j, off in zip(support, offs):
                if recorded.pop(j, 0) != off:
                    issues.append(f"{b}/{r}: offset at j={j} should be {off}")
            if recorded:
                issues.append(
                    f"{b}/{r}: offsets outside the support: {sorted(recorded)}"
                )
        # The lemmas speak only of unimodular splits, whose indices are coprime.
        predicted = lemma_offsets(r_hi, r_lo, support) if unimodular else offs
        if offs != predicted:
            for j, _, want in _contradictions(support, offs, predicted):
                rule = "additivity" if want == 0 else "the offset lemma"
                issues.append(f"{b}/{r}: j={j} contradicts {rule}")
        if net_rec != net:
            issues.append(f"{b}/{r}: recorded net offset {net_rec} != {net}")
    _check_count(count, declared)

    if not (seen is None and next(expected, None) is None):
        issues[:0] = _coverage([(r, b) for b, r in _file_points(fh)], r_max)
    min_slack = Fraction(least_num, least_den) if count else None
    return VerificationReport(count, min_slack, tuple(issues))
