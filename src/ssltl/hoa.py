"""HOA v1 ingestion for deterministic, complete, state-based Rabin automata.

Supported subset: explicit edge labels (Boolean formulas over AP indices and
the constants ``t`` and ``f``, compiled by ``model.parse_formula`` into
predicates over letters of AP names), ``acc-name: Rabin k`` or an acceptance
formula of the shape ``(Fin(0) & Inf(1)) | (Fin(2) & Inf(3)) | ...``.
Transition-based acceptance and implicit edges are rejected.  Alphabets are
small here (at most 2^4 letters in every shipped automaton), so transition
functions are expanded to explicit letters rather than kept symbolic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from ssltl.errors import HoaError
from ssltl.model import parse_formula


@dataclass(frozen=True)
class Dra:
    """Deterministic complete Rabin automaton.

    ``delta`` is total over nodes x letters (letters are frozensets of AP
    names); ``pairs`` holds (fin, inf) node sets: a run accepts for pair i iff
    it visits fin_i finitely often and inf_i infinitely often.
    """

    nodes: tuple
    initial: str
    alphabet: tuple
    delta: Mapping[tuple, str]
    pairs: tuple


def letters_of(alphabet: Iterable[str]):
    """All 2^|AP| letters in a fixed order (subset bitmask over ap order)."""
    alphabet = tuple(alphabet)
    out = []
    for mask in range(1 << len(alphabet)):
        out.append(frozenset(alphabet[i] for i in range(len(alphabet))
                             if mask >> i & 1))
    return tuple(out)


def dra_step(d: Dra, q: str, letter: Iterable[str]) -> str:
    """The unique successor of ``q`` on ``letter`` (restricted to the
    automaton's alphabet; foreign propositions read as false)."""
    key = frozenset(letter) & frozenset(d.alphabet)
    return d.delta[(q, key)]


# ---------------------------------------------------------------------------
# Edge-label formulas over AP indices
# ---------------------------------------------------------------------------

def _parse_label_expr(text: str, ap: tuple):
    """Compile an edge label, a Boolean formula over the constants ``t`` and
    ``f`` and AP indices into ``ap``, to a predicate over a letter of AP
    names."""
    def atom(word: str):
        if word == "t":
            return lambda letter: True
        if word == "f":
            return lambda letter: False
        if not word.isdecimal():
            raise HoaError(f"unexpected token {word!r} in label {text!r}")
        if int(word) >= len(ap):
            raise HoaError(f"label {text!r} names AP {word}, but only "
                           f"{len(ap)} are declared")
        name = ap[int(word)]
        return lambda letter: name in letter

    return parse_formula(text, atom, HoaError)


# ---------------------------------------------------------------------------
# Acceptance condition
# ---------------------------------------------------------------------------

_ACC_ATOM_RE = re.compile(r"(Fin|Inf)\s*\(\s*(\d+)\s*\)")


def _parse_rabin_acceptance(formula: str, n_sets: int) -> int:
    """Validate a Rabin-shaped acceptance formula and return the pair count.

    Expected shape: disjunction over i of (Fin(2i) & Inf(2i+1)).
    """
    disjuncts = [d.strip() for d in formula.split("|")]
    pairs = []
    for d in disjuncts:
        atoms = _ACC_ATOM_RE.findall(d)
        stripped = _ACC_ATOM_RE.sub("", d)
        if stripped.strip(" ()&") != "":
            raise HoaError(f"unsupported acceptance shape: {formula!r}")
        if len(atoms) != 2:
            raise HoaError(f"unsupported acceptance shape: {formula!r}")
        kinds = {a[0]: int(a[1]) for a in atoms}
        if set(kinds) != {"Fin", "Inf"}:
            raise HoaError(f"unsupported acceptance shape: {formula!r}")
        pairs.append((kinds["Fin"], kinds["Inf"]))
    for i, (fin, inf) in enumerate(pairs):
        if fin != 2 * i or inf != 2 * i + 1:
            raise HoaError(
                f"acceptance sets must be numbered Fin(2i) & Inf(2i+1): {formula!r}")
    if n_sets != 2 * len(pairs):
        raise HoaError(
            f"acceptance declares {n_sets} sets but formula uses {2 * len(pairs)}")
    return len(pairs)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_STATE_RE = re.compile(r"State:\s*(\d+)\s*(?:\"[^\"]*\"\s*)?(?:\{([\d\s]*)\})?\s*$")
_EDGE_RE = re.compile(r"\[(.*)\]\s*(\d+)\s*(\{[\d\s]*\})?\s*$")


def _counted_header(header: dict, key: str) -> tuple:
    """A ``count rest`` header value split into its count and the rest."""
    value = header.get(key)
    if value is None:
        raise HoaError(f"missing {key} header")
    parts = value.split(None, 1)
    if not parts or not parts[0].isdecimal():
        raise HoaError(f"{key} header does not start with a count: {value!r}")
    return int(parts[0]), parts[1] if len(parts) > 1 else ""


def parse_hoa(text: str) -> Dra:
    header: dict = {}
    lines = [ln.strip() for ln in text.splitlines()]
    body_at = None
    for i, ln in enumerate(lines):
        if ln == "--BODY--":
            body_at = i
            break
        if not ln or ln.startswith("/*"):
            continue
        if ":" in ln:
            key, _, val = ln.partition(":")
            header.setdefault(key.strip(), val.strip())
    if body_at is None:
        raise HoaError("missing --BODY-- marker")

    if header.get("HOA") != "v1":
        raise HoaError(f"unsupported HOA version {header.get('HOA')!r}")
    try:
        n_states = int(header["States"])
        start = int(header["Start"])
    except (KeyError, ValueError) as exc:
        raise HoaError(f"missing or bad States/Start header: {exc}") from exc
    if not 0 <= start < n_states:
        raise HoaError(f"Start state {start} out of declared range")

    n_ap, ap_names = _counted_header(header, "AP")
    ap = tuple(re.findall(r'"([^"]*)"', ap_names))
    if len(ap) != n_ap:
        raise HoaError(f"AP header declares {n_ap} names, found {len(ap)}")

    n_sets, formula = _counted_header(header, "Acceptance")
    n_pairs = _parse_rabin_acceptance(formula, n_sets)
    acc_name = header.get("acc-name")
    if acc_name is not None and acc_name.split() != ["Rabin", str(n_pairs)]:
        raise HoaError(f"acc-name {acc_name!r} does not match Rabin {n_pairs}")
    if n_pairs == 0:
        raise HoaError("automaton has no acceptance pairs")

    # Body: State: headers with membership sets, then labeled edges.
    membership: dict = {}
    edges: dict = {i: [] for i in range(n_states)}
    current = None
    for ln in lines[body_at + 1:]:
        if not ln or ln.startswith("/*"):
            continue
        if ln == "--END--":
            break
        if ln.startswith("State:"):
            m = _STATE_RE.match(ln)
            if not m:
                raise HoaError(f"cannot parse state header {ln!r}")
            current = int(m.group(1))
            if current >= n_states:
                raise HoaError(f"state {current} out of declared range")
            if current in membership:
                raise HoaError(f"state {current} has a second State: header")
            sets = frozenset(int(x) for x in (m.group(2) or "").split())
            if any(x >= n_sets for x in sets):
                raise HoaError(f"state {current} names an acceptance set "
                               f"beyond the declared {n_sets}")
            membership[current] = sets
            continue
        m = _EDGE_RE.match(ln)
        if m:
            if current is None:
                raise HoaError(f"edge {ln!r} before any State: header")
            if m.group(3) is not None:
                raise HoaError(
                    f"transition-based acceptance on edge {ln!r} is unsupported")
            edges[current].append((m.group(1), int(m.group(2))))
            continue
        raise HoaError(f"cannot parse body line {ln!r} "
                       "(implicit edges are unsupported)")

    for bad in (i for i in range(n_states) if any(t >= n_states
                                                  for _, t in edges[i])):
        raise HoaError(f"state {bad} has an edge to an undeclared state")

    # Expand edge labels to concrete letters; enforce determinism/completeness.
    nodes = tuple(f"q{i}" for i in range(n_states))
    all_letters = letters_of(ap)
    delta: dict = {}
    for i in range(n_states):
        compiled = [(_parse_label_expr(expr, ap), tgt)
                    for expr, tgt in edges[i]]
        for letter in all_letters:
            targets = [tgt for fn, tgt in compiled if fn(letter)]
            if len(targets) > 1:
                raise HoaError(
                    f"state {i} has {len(targets)} edges for letter "
                    f"{sorted(letter)} (non-deterministic)")
            if not targets:
                raise HoaError(
                    f"state {i} has no edge for letter {sorted(letter)} "
                    "(incomplete)")
            delta[(nodes[i], letter)] = nodes[targets[0]]

    pairs = []
    for k in range(n_pairs):
        fin = frozenset(nodes[i] for i in range(n_states)
                        if 2 * k in membership.get(i, ()))
        inf = frozenset(nodes[i] for i in range(n_states)
                        if 2 * k + 1 in membership.get(i, ()))
        pairs.append((fin, inf))

    return Dra(nodes=nodes, initial=nodes[start], alphabet=ap, delta=delta,
               pairs=tuple(pairs))


def load_hoa(path) -> Dra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise HoaError(f"cannot read automaton file {path}: {exc}") from exc
    return parse_hoa(text)
