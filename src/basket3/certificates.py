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
support; ``net`` is their coefficient-weighted sum, so that

    xidelta(child) = xidelta(high) + xidelta(low) + net.

The kernel is integer-only.  Each point's delta vector (delta^j for j in
the support) is computed once and kept in a table, and a split reads its
parents' vectors from that table, so its offsets are
``d_child - d_high - d_low``.  xi_bar is kept as its numerator over 2r and
the target as an integer; ``Fraction`` appears only in the node properties,
the reports and the text fields.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from operator import attrgetter
from typing import Iterable

from .baskets import OrbifoldPoint
from .functionals import (
    SLOPE_CUT,
    Functional,
    delta_vector,
    lemma_offset,
    point_target,
    xi_bar_num,
    xi_lin_num,
)
from .rationals import format_fraction, slopes, split_slope

__all__ = [
    "Certificate",
    "CertificateNode",
    "VerificationReport",
    "proof_replay",
    "verify_certificate",
]

FORMAT_VERSION = 1
_HEADER_KEYS = (
    "basket3-certificate", "coefficients", "low-slope-floor", "slope-cut", "r-max", "nodes"
)
_LEAF_FIELDS = ("xidelta", "xibar", "target")
_SPLIT_FIELDS = ("cfdet", "offsets", "net") + _LEAF_FIELDS
# One spelling per value: no leading zeros, no "-0", no "+", ASCII digits.
_INT_RULE = "0|-?[1-9][0-9]*"
_INT = re.compile(_INT_RULE)
_POINT = re.compile("([1-9][0-9]*)/([1-9][0-9]*)")
_FRACTION = re.compile(f"({_INT_RULE})(?:/([1-9][0-9]*))?")


@dataclass(frozen=True, slots=True)
class CertificateNode:
    """One point of the sweep: either an atom or a recorded mediant split.

    Values are kept as integers: ``xi_num`` is xi_bar times 2r and
    ``target_int`` the integer target; the ``Fraction`` views are properties.
    """

    point: OrbifoldPoint
    parents: tuple[OrbifoldPoint, OrbifoldPoint] | None
    cf_det: int | None
    offsets: tuple[tuple[int, int], ...]
    net_offset: int
    xi_delta: int
    xi_num: int
    target_int: int

    @property
    def is_leaf(self) -> bool:
        return self.parents is None

    @property
    def xi_bar(self) -> Fraction:
        return Fraction(self.xi_num, 2 * self.point.r)

    @property
    def target(self) -> Fraction:
        return Fraction(self.target_int)

    @property
    def slack_num(self) -> int:
        """The slack times 2r."""
        return self.xi_num - 2 * self.point.r * self.target_int

    @property
    def slack(self) -> Fraction:
        return Fraction(self.slack_num, 2 * self.point.r)

    def __reduce__(self):
        # Pickle as a constructor call, as OrbifoldPoint does: workers send
        # their nodes back to the parent process.
        return CertificateNode, _node_fields(self)


_node_fields = attrgetter(*CertificateNode.__slots__)


@dataclass(frozen=True)
class Certificate:
    """A full sweep up to r_max for one functional and target rule."""

    functional: Functional
    r_max: int
    low_slope_floor: int
    slope_cut: Fraction
    nodes: tuple[CertificateNode, ...]

    def node_for(self, point: OrbifoldPoint) -> CertificateNode:
        return self._index[point]

    @cached_property
    def _index(self) -> dict[OrbifoldPoint, CertificateNode]:
        return {node.point: node for node in self.nodes}

    def min_slack(self) -> Fraction | None:
        return self.slack_summary()[0]

    def min_slack_points(self) -> tuple[OrbifoldPoint, ...]:
        return self.slack_summary()[1]

    def slack_summary(self) -> tuple[Fraction | None, tuple[OrbifoldPoint, ...]]:
        """The least slack and the points attaining it (None without nodes)."""
        return _least_slack(
            (n.point for n in self.nodes), [n.slack_num for n in self.nodes]
        )

    def to_text(self) -> str:
        lines = [
            f"basket3-certificate: {FORMAT_VERSION}",
            "coefficients: " + ",".join(str(c) for c in self.functional.coeffs),
            f"low-slope-floor: {self.low_slope_floor}",
            f"slope-cut: {format_fraction(self.slope_cut)}",
            f"r-max: {self.r_max}",
            f"nodes: {len(self.nodes)}",
            "",
        ]
        lines.extend(_node_line(node) for node in self.nodes)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Certificate":
        lines = text.splitlines()
        header: dict[str, str] = {}
        body_start = 0
        for i, line in enumerate(lines):
            if not line.strip():
                body_start = i + 1
                break
            key, _, value = line.partition(": ")
            if key not in _HEADER_KEYS or key in header:
                raise ValueError(f"unknown or repeated certificate header line {line!r}")
            header[key] = value
        else:
            raise ValueError("missing blank line after certificate header")
        if header.get("basket3-certificate") != str(FORMAT_VERSION):
            raise ValueError("unsupported certificate format")
        try:
            func = Functional(
                tuple(_int(c) for c in header["coefficients"].split(","))
            )
            points: dict[str, OrbifoldPoint] = {}
            nodes = tuple(
                _parse_node_line(line, points)
                for line in lines[body_start:]
                if line.strip()
            )
            if len(nodes) != _int(header["nodes"]):
                raise ValueError(
                    f"node count {len(nodes)} != declared {header['nodes']}"
                )
            return cls(
                functional=func,
                r_max=_int(header["r-max"]),
                low_slope_floor=_int(header["low-slope-floor"]),
                slope_cut=Fraction(*_fraction(header["slope-cut"])),
                nodes=nodes,
            )
        except (KeyError, IndexError) as exc:
            raise ValueError(f"malformed certificate: missing {exc}") from exc

    def write(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.to_text())

    @classmethod
    def read(cls, path: str | os.PathLike) -> "Certificate":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


def _least_slack(
    points: Iterable[OrbifoldPoint], slacks: list[int]
) -> tuple[Fraction | None, tuple[OrbifoldPoint, ...]]:
    """The least slack and the points attaining it; each slack is over 2r.

    Slacks are compared by cross-multiplication, so only the result is a
    ``Fraction``; no points give ``(None, ())``.
    """
    best_num, best_den = 0, 0
    attained: list[OrbifoldPoint] = []
    for p, num in zip(points, slacks):
        den = 2 * p.r
        if not attained or num * best_den < best_num * den:
            best_num, best_den, attained = num, den, [p]
        elif num * best_den == best_num * den:
            attained.append(p)
    if not attained:
        return None, ()
    return Fraction(best_num, best_den), tuple(attained)


def _node_line(node: CertificateNode) -> str:
    den = 2 * node.point.r
    g = gcd(node.xi_num, den)
    xibar = f"{node.xi_num // g}" if g == den else f"{node.xi_num // g}/{den // g}"
    tail = f"xidelta={node.xi_delta} xibar={xibar} target={node.target_int}"
    if node.is_leaf:
        return f"{node.point} leaf {tail}"
    hi, lo = node.parents
    offs = ",".join(f"{j}:{v}" for j, v in node.offsets) or "-"
    return (
        f"{node.point} split {hi},{lo} cfdet={node.cf_det}"
        f" offsets={offs} net={node.net_offset} {tail}"
    )


def _int(text: str) -> int:
    """A canonical ASCII integer: ``0`` or ``-?[1-9][0-9]*``.

    int() alone also takes "+1", "1_2", "01" and "-0".
    """
    if _INT.fullmatch(text) is None:
        raise ValueError(f"malformed certificate integer {text!r}")
    return int(text)


def _fraction(text: str) -> tuple[int, int]:
    """(p, q) of a canonical fraction: an integer, or reduced ``p/q`` with q > 1."""
    match = _FRACTION.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed certificate fraction {text!r}")
    num, den = match.groups()
    if den is None:
        return int(num), 1
    num, den = int(num), int(den)
    if den == 1 or gcd(num, den) != 1:
        raise ValueError(f"certificate fraction {text!r} is not in lowest terms")
    return num, den


def _xi_num(text: str, r: int) -> int:
    """The ``xibar=`` value read as a numerator over 2r."""
    num, den = _fraction(text)
    scale, rem = divmod(2 * r, den)
    if rem:
        raise ValueError(f"xibar {text!r} is not a fraction over 2r = {2 * r}")
    return num * scale


def _parse_point(text: str) -> OrbifoldPoint:
    match = _POINT.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed certificate point {text!r}")
    b, r = match.groups()
    return OrbifoldPoint(int(b), int(r))


def _fields(tokens: list[str], names: tuple[str, ...]) -> dict[str, str]:
    """The ``name=value`` tokens of a node line, which must be exactly ``names``."""
    fields = {}
    for name, tok in zip(names, tokens):
        key, eq, value = tok.partition("=")
        if key != name or not eq:
            raise ValueError(f"unexpected node field {tok!r}; want {' '.join(names)}")
        fields[name] = value
    if len(tokens) > len(names):
        raise ValueError(
            f"unexpected node field {tokens[len(names)]!r}; want {' '.join(names)}"
        )
    if len(tokens) < len(names):
        raise ValueError(f"missing node field {names[len(tokens)]!r}")
    return fields


def _parse_node_line(line: str, points: dict[str, OrbifoldPoint]) -> CertificateNode:
    """One node line.

    ``points`` maps the text of every point read so far to its object, so a
    split's parents reuse those objects instead of being parsed again.
    """
    tokens = line.split()
    point = points[tokens[0]] = _parse_point(tokens[0])
    kind = tokens[1]
    if kind == "leaf":
        fields = _fields(tokens[2:], _LEAF_FIELDS)
        parents = None
        cf_det = None
        offsets: tuple[tuple[int, int], ...] = ()
        net = 0
    elif kind == "split":
        hi_text, _, lo_text = tokens[2].partition(",")
        parents = (
            points.get(hi_text) or _parse_point(hi_text),
            points.get(lo_text) or _parse_point(lo_text),
        )
        fields = _fields(tokens[3:], _SPLIT_FIELDS)
        cf_det = _int(fields["cfdet"])
        if fields["offsets"] == "-":
            offsets = ()
        else:
            offsets = tuple(
                (_int(j), _int(v))
                for j, v in (item.split(":") for item in fields["offsets"].split(","))
            )
        net = _int(fields["net"])
    else:
        raise ValueError(f"unknown node kind {kind!r}")
    return CertificateNode(
        point=point,
        parents=parents,
        cf_det=cf_det,
        offsets=offsets,
        net_offset=net,
        xi_delta=_int(fields["xidelta"]),
        xi_num=_xi_num(fields["xibar"], point.r),
        target_int=_int(fields["target"]),
    )


def _observed_offsets(d, d_hi, d_lo) -> list[int]:
    """delta^j(child) - delta^j(hi) - delta^j(lo), from the three delta vectors."""
    return [c - h - l for c, h, l in zip(d, d_hi, d_lo)]


def _build_node(
    func: Functional, b: int, r: int, floor: int, table: dict
) -> CertificateNode:
    """The node at b/r.

    ``table`` maps (b, r) to the point and its delta vector for every point
    built or looked up so far in this chunk, so a split reads its parents'
    vectors, and shares their point objects, instead of recomputing them.
    """
    point = OrbifoldPoint(b, r)
    d = delta_vector(func, b, r)
    table[b, r] = point, d
    xd = func.weigh(d)
    xi = xi_bar_num(func, b, r)
    target = point_target(floor, b, r)
    if b == 1:
        return CertificateNode(point, None, None, (), 0, xd, xi, target)
    hi_key, lo_key, cf_det = split_slope(b, r)
    hi, d_hi = _table_entry(func, table, hi_key)
    lo, d_lo = _table_entry(func, table, lo_key)
    offs = _observed_offsets(d, d_hi, d_lo)
    offsets = []
    for j, off in zip(func.support, offs):
        expected = lemma_offset(hi.r, lo.r, j)
        if expected is not None and off != expected:
            raise ArithmeticError(
                f"offset {off} at j={j} contradicts lemma value {expected} "
                f"for split {b}/{r} -> {hi}, {lo}"
            )
        if off:
            offsets.append((j, off))
    return CertificateNode(
        point, (hi, lo), cf_det, tuple(offsets), func.weigh(offs), xd, xi, target
    )


def _table_entry(func: Functional, table: dict, key: tuple[int, int]):
    # A parent below the chunk's first r is computed once, then kept.
    entry = table.get(key)
    if entry is None:
        entry = table[key] = OrbifoldPoint(*key), delta_vector(func, *key)
    return entry


def _build_range(args) -> list[CertificateNode]:
    coeffs, floor, r_lo, r_hi = args
    func = Functional(coeffs)
    table: dict[tuple[int, int], tuple[OrbifoldPoint, tuple[int, ...]]] = {}
    return [
        _build_node(func, b, r, floor, table) for b, r in slopes(r_lo, r_hi)
    ]


def proof_replay(
    func: Functional,
    r_max: int,
    *,
    low_slope_floor: int = 0,
    jobs: int = 1,
) -> Certificate:
    """Build the certificate for all coprime b/r <= 1/2 with r <= r_max.

    The node list is identical for any ``jobs``: work is chunked by r and
    merged in order.
    """
    if r_max < 2:
        raise ValueError(f"r_max must be at least 2, got {r_max}")
    chunk = r_max if jobs <= 1 else max(1, (r_max - 1) // (jobs * 8))
    tasks = [
        (func.coeffs, low_slope_floor, r, min(r + chunk - 1, r_max))
        for r in range(2, r_max + 1, chunk)
    ]
    if jobs <= 1:
        parts = map(_build_range, tasks)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_build_range, tasks))
    nodes = [node for part in parts for node in part]
    return Certificate(func, r_max, low_slope_floor, SLOPE_CUT, tuple(nodes))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an independent re-check of a certificate."""

    nodes: int
    min_slack: Fraction | None
    min_slack_points: tuple[OrbifoldPoint, ...]
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Re-check every node of a certificate from scratch.

    Structural checks: the node set covers exactly the coprime slopes up
    to r_max, in canonical order, the parents of every split come before
    it, and its cfdet is +1 exactly when the high parent has the smaller
    index.  Arithmetic checks, all recomputed independently of the
    recorded values: xi_bar, xi_delta, targets, per-j offsets with their
    lemma classification, and the additivity identity through each split.
    Finally every node must satisfy xi_bar >= target.  Values are compared
    as integers over 2r.  Each point's delta vector is recomputed once and
    kept for the splits that name it as a parent; recorded fields are never
    used in place of a recomputed value.
    """
    func = cert.functional
    issues: list[str] = []

    got = ((node.point.b, node.point.r) for node in cert.nodes)
    if any(g != e for g, e in zip_longest(got, slopes(2, cert.r_max))):
        got = [(node.point.b, node.point.r) for node in cert.nodes]
        expected = set(slopes(2, cert.r_max))
        keys = [(r, b) for b, r in got]
        if keys != sorted(keys) or len(set(got)) != len(got):
            issues.append("nodes are not in canonical order or contain repeats")
        if set(got) != expected:
            def first(points):
                return [f"{b}/{r}" for r, b in sorted((r, b) for b, r in points)[:5]]

            missing = first(expected - set(got))
            extra = first(set(got) - expected)
            issues.append(f"coverage mismatch: missing {missing}, extra {extra}")

    vectors: dict[tuple[int, int], tuple[int, ...]] = {}
    slacks = []
    for node in cert.nodes:
        p = node.point
        b, r = p.b, p.r
        label = str(p)
        d = vectors[b, r] = delta_vector(func, b, r)
        xd = func.weigh(d)
        xi = xi_bar_num(func, b, r)
        if node.xi_num != xi:
            issues.append(
                f"{label}: recorded xibar {node.xi_bar} != {Fraction(xi, 2 * r)}"
            )
        if node.xi_delta != xd:
            issues.append(f"{label}: recorded xidelta {node.xi_delta} != {xd}")
        if xi != 2 * r * xd + xi_lin_num(func, b, r):
            issues.append(f"{label}: xi_bar != xi_delta + xi_lin")
        target = point_target(cert.low_slope_floor, b, r, cert.slope_cut)
        slack = xi - 2 * r * target
        slacks.append(slack)
        if node.target_int != target:
            issues.append(f"{label}: recorded target {node.target_int} != {target}")
        if slack < 0:
            issues.append(
                f"{label}: violation, xibar {Fraction(xi, 2 * r)} < target {target}"
            )
        if node.is_leaf:
            if b != 1:
                issues.append(f"{label}: non-atom recorded as leaf")
            continue
        hi, lo = node.parents
        if hi.b + lo.b != b or hi.r + lo.r != r:
            issues.append(f"{label}: parents {hi}, {lo} do not sum to the point")
            continue
        if hi.b * lo.r - lo.b * hi.r != 1:
            issues.append(f"{label}: parents are not unimodular in (high, low) order")
        cf_det = 1 if 2 * hi.r < r else -1
        if node.cf_det != cf_det:
            issues.append(f"{label}: recorded cfdet {node.cf_det} != {cf_det}")
        d_hi = vectors.get((hi.b, hi.r))
        d_lo = vectors.get((lo.b, lo.r))
        if d_hi is None or d_lo is None:
            issues.append(f"{label}: parents missing from the certificate before it")
            continue
        offs = _observed_offsets(d, d_hi, d_lo)
        recorded = dict(node.offsets)
        for j, off in zip(func.support, offs):
            if recorded.pop(j, 0) != off:
                issues.append(f"{label}: offset at j={j} should be {off}")
            expected = lemma_offset(hi.r, lo.r, j)
            if expected is not None and off != expected:
                rule = "additivity" if expected == 0 else "the offset lemma"
                issues.append(f"{label}: j={j} contradicts {rule}")
        if recorded:
            issues.append(f"{label}: offsets outside the support: {sorted(recorded)}")
        net = func.weigh(offs)
        if node.net_offset != net:
            issues.append(f"{label}: recorded net offset {node.net_offset} != {net}")

    min_slack, attained = _least_slack((n.point for n in cert.nodes), slacks)
    return VerificationReport(len(cert.nodes), min_slack, attained, tuple(issues))
