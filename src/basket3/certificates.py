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
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .baskets import OrbifoldPoint
from .functionals import (
    SLOPE_CUT,
    Functional,
    lemma_offset,
    point_target,
    split_offset,
    xi_bar_pair,
    xi_delta_pair,
    xi_lin,
)
from .rationals import format_fraction, mediant_parents, parse_fraction

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
_INT_RULE = "-?[0-9]+"  # every integer field: ASCII digits, optional "-"
_INT = re.compile(_INT_RULE)
_POINT = re.compile(f"({_INT_RULE})/({_INT_RULE})")


@dataclass(frozen=True)
class CertificateNode:
    """One point of the sweep: either an atom or a recorded mediant split."""

    point: OrbifoldPoint
    parents: tuple[OrbifoldPoint, OrbifoldPoint] | None
    cf_det: int | None
    offsets: tuple[tuple[int, int], ...]
    net_offset: int
    xi_delta: int
    xi_bar: Fraction
    target: Fraction

    @property
    def is_leaf(self) -> bool:
        return self.parents is None

    @property
    def slack(self) -> Fraction:
        return self.xi_bar - self.target


@dataclass(frozen=True)
class Certificate:
    """A full sweep up to r_max for one functional and target rule."""

    functional: Functional
    r_max: int
    low_slope_floor: int
    slope_cut: Fraction
    nodes: tuple[CertificateNode, ...]

    def node_for(self, point: OrbifoldPoint) -> CertificateNode:
        return self._index()[point]

    def _index(self) -> dict[OrbifoldPoint, CertificateNode]:
        return {node.point: node for node in self.nodes}

    def min_slack(self) -> Fraction:
        return min(node.slack for node in self.nodes)

    def min_slack_points(self) -> tuple[OrbifoldPoint, ...]:
        return self.slack_summary()[1]

    def slack_summary(self) -> tuple[Fraction, tuple[OrbifoldPoint, ...]]:
        """The least slack and the points attaining it, from one pass of slacks."""
        slacks = [node.slack for node in self.nodes]
        best = min(slacks)
        return best, tuple(n.point for n, s in zip(self.nodes, slacks) if s == best)

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
            nodes = tuple(
                _parse_node_line(line) for line in lines[body_start:] if line.strip()
            )
            if len(nodes) != _int(header["nodes"]):
                raise ValueError(
                    f"node count {len(nodes)} != declared {header['nodes']}"
                )
            return cls(
                functional=func,
                r_max=_int(header["r-max"]),
                low_slope_floor=_int(header["low-slope-floor"]),
                slope_cut=parse_fraction(header["slope-cut"]),
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


def _node_line(node: CertificateNode) -> str:
    tail = (
        f"xidelta={node.xi_delta}"
        f" xibar={format_fraction(node.xi_bar)}"
        f" target={format_fraction(node.target)}"
    )
    if node.is_leaf:
        return f"{node.point} leaf {tail}"
    hi, lo = node.parents
    offs = ",".join(f"{j}:{v}" for j, v in node.offsets) or "-"
    return (
        f"{node.point} split {hi},{lo} cfdet={node.cf_det}"
        f" offsets={offs} net={node.net_offset} {tail}"
    )


def _int(text: str) -> int:
    """An ASCII ``-?[0-9]+`` integer; int() alone also takes "+1" and "1_2"."""
    if _INT.fullmatch(text) is None:
        raise ValueError(f"malformed certificate integer {text!r}")
    return int(text)


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


def _parse_node_line(line: str) -> CertificateNode:
    tokens = line.split()
    point = _parse_point(tokens[0])
    kind = tokens[1]
    if kind == "leaf":
        fields = _fields(tokens[2:], _LEAF_FIELDS)
        parents = None
        cf_det = None
        offsets: tuple[tuple[int, int], ...] = ()
        net = 0
    elif kind == "split":
        hi_text, _, lo_text = tokens[2].partition(",")
        parents = (_parse_point(hi_text), _parse_point(lo_text))
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
        xi_bar=parse_fraction(fields["xibar"]),
        target=parse_fraction(fields["target"]),
    )


def _split_offsets(
    func: Functional, b: int, r: int, hi: OrbifoldPoint, lo: OrbifoldPoint
) -> tuple[tuple[tuple[int, int], ...], int]:
    """Per-j delta offsets across the split, checked against the lemmas.

    Each offset is computed directly as delta^j(child) minus the parents'
    sum and then compared with ``lemma_offset`` whenever a lemma applies.
    """
    offsets = []
    net = 0
    for j in func.support:
        off = split_offset(j, hi, lo)
        expected = lemma_offset(hi.r, lo.r, j)
        if expected is not None and off != expected:
            raise ArithmeticError(
                f"offset {off} at j={j} contradicts lemma value {expected} "
                f"for split {b}/{r} -> {hi}, {lo}"
            )
        if off:
            offsets.append((j, off))
        net += func.coeffs[j - 1] * off
    return tuple(offsets), net


def _build_node(func: Functional, b: int, r: int, floor: int) -> CertificateNode:
    point = OrbifoldPoint(b, r)
    xd = xi_delta_pair(func, b, r)
    xb = xi_bar_pair(func, b, r)
    target = point_target(floor, b, r)
    if b == 1:
        return CertificateNode(point, None, None, (), 0, xd, xb, target)
    split = mediant_parents(b, r)
    offsets, net = _split_offsets(func, b, r, split.high, split.low)
    parent_sum = xi_delta_pair(func, split.high.b, split.high.r) + xi_delta_pair(
        func, split.low.b, split.low.r
    )
    assert xd == parent_sum + net
    return CertificateNode(
        point, (split.high, split.low), split.cf_det, offsets, net, xd, xb, target
    )


def _points_for_range(r_lo: int, r_hi: int):
    for r in range(r_lo, r_hi + 1):
        for b in range(1, r // 2 + 1):
            if gcd(b, r) == 1:
                yield b, r


def _build_range(args) -> list[CertificateNode]:
    coeffs, floor, r_lo, r_hi = args
    func = Functional(coeffs)
    return [_build_node(func, b, r, floor) for b, r in _points_for_range(r_lo, r_hi)]


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
    to r_max, in canonical order, with parents of every split present.
    Arithmetic checks, all recomputed independently of the recorded
    values: xi_bar, xi_delta, targets, per-j offsets with their lemma
    classification, and the additivity identity through each split.
    Finally every node must satisfy xi_bar >= target.
    """
    func = cert.functional
    issues: list[str] = []

    expected = [
        OrbifoldPoint(b, r) for b, r in _points_for_range(2, cert.r_max)
    ]
    got = [node.point for node in cert.nodes]
    if got != sorted(got, key=OrbifoldPoint.key) or len(set(got)) != len(got):
        issues.append("nodes are not in canonical order or contain repeats")
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got), key=OrbifoldPoint.key)[:5]
        extra = sorted(set(got) - set(expected), key=OrbifoldPoint.key)[:5]
        issues.append(f"coverage mismatch: missing {missing}, extra {extra}")

    index = {node.point: node for node in cert.nodes}
    slacks = []
    for node in cert.nodes:
        p = node.point
        label = str(p)
        xb = xi_bar_pair(func, p.b, p.r)
        xd = xi_delta_pair(func, p.b, p.r)
        if node.xi_bar != xb:
            issues.append(f"{label}: recorded xibar {node.xi_bar} != {xb}")
        if node.xi_delta != xd:
            issues.append(f"{label}: recorded xidelta {node.xi_delta} != {xd}")
        if xb != xd + xi_lin(func, p):
            issues.append(f"{label}: xi_bar != xi_delta + xi_lin")
        target = point_target(cert.low_slope_floor, p.b, p.r, cert.slope_cut)
        slacks.append(xb - target)
        if node.target != target:
            issues.append(f"{label}: recorded target {node.target} != {target}")
        if xb < target:
            issues.append(f"{label}: violation, xibar {xb} < target {target}")
        if node.is_leaf:
            if p.b != 1:
                issues.append(f"{label}: non-atom recorded as leaf")
            continue
        hi, lo = node.parents
        if hi.b + lo.b != p.b or hi.r + lo.r != p.r:
            issues.append(f"{label}: parents {hi}, {lo} do not sum to the point")
            continue
        if hi.b * lo.r - lo.b * hi.r != 1:
            issues.append(f"{label}: parents are not unimodular in (high, low) order")
        if node.cf_det not in (1, -1):
            issues.append(f"{label}: cf determinant {node.cf_det} not +-1")
        if hi not in index or lo not in index:
            issues.append(f"{label}: parents missing from certificate")
            continue
        recorded = dict(node.offsets)
        net = 0
        for j in func.support:
            off = split_offset(j, hi, lo)
            if recorded.pop(j, 0) != off:
                issues.append(f"{label}: offset at j={j} should be {off}")
            expected = lemma_offset(hi.r, lo.r, j)
            if expected is not None and off != expected:
                rule = "additivity" if expected == 0 else "the offset lemma"
                issues.append(f"{label}: j={j} contradicts {rule}")
            net += func.coeffs[j - 1] * off
        if recorded:
            issues.append(f"{label}: offsets outside the support: {sorted(recorded)}")
        if node.net_offset != net:
            issues.append(f"{label}: recorded net offset {node.net_offset} != {net}")
        parent_sum = xi_delta_pair(func, hi.b, hi.r) + xi_delta_pair(func, lo.b, lo.r)
        if xd != parent_sum + net:
            issues.append(f"{label}: xi_delta does not replay through the split")

    min_slack = min(slacks) if slacks else None
    attained = tuple(
        n.point for n, s in zip(cert.nodes, slacks) if s == min_slack
    )
    return VerificationReport(len(cert.nodes), min_slack, attained, tuple(issues))
