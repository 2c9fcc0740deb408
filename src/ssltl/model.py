"""Labeled MDP data model, the Boolean-formula parser, the JSON model and
spec formats, and the random-gridworld benchmark generator.

``parse_formula`` is the one grammar for Boolean label formulas: the spec's
steady-state formulas over proposition names and the HOA edge labels over AP
indices both compile through it into predicates over a letter (the set of
proposition names that hold).

Probability rows are validated to sum to 1 within ``PROB_TOL`` (1e-12); all
fixture probabilities are dyadics or short decimals far above this.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Union

import numpy as np

from ssltl.errors import ModelError

PROB_TOL = 1e-12

GRID_ACTIONS = ("left", "down", "right", "up")
_GRID_MOVES = {"left": (0, -1), "down": (1, 0), "right": (0, 1), "up": (-1, 0)}
# Perpendicular slip directions for each intended move.
_LATERAL = {"left": ("up", "down"), "right": ("up", "down"),
            "up": ("left", "right"), "down": ("left", "right")}


# ---------------------------------------------------------------------------
# Boolean formulas
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*([\w?]+|[!&|()])")


def parse_formula(text: str, atom: Callable[[str], Callable],
                  error: type) -> Callable:
    """Compile ``WORD | ! f | f & f | f | f`` (parentheses allowed) into a
    predicate over a letter, the set of proposition names that hold.

    ``|`` binds loosest, then ``&``, then ``!``; binary operators associate
    to the left.  A word is a run of alphanumerics, ``_`` and ``?``;
    ``atom(word)`` compiles it.  Malformed text raises ``error``.  Both the
    spec's label formulas and the HOA edge labels go through here.
    """
    if not isinstance(text, str):
        raise error(f"formula must be a string, not {text!r}")
    tokens = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise error(f"unexpected character {text[pos:].lstrip()[0]!r} "
                        f"in formula {text!r}")
        tokens.append(match.group(1))
        pos = match.end()
    tokens.append("")       # end of input
    at = 0

    def take() -> str:
        nonlocal at
        at += 1
        return tokens[at - 1]

    def disjunction():
        f = conjunction()
        while tokens[at] == "|":
            take()
            f = _or(f, conjunction())
        return f

    def conjunction():
        f = unary()
        while tokens[at] == "&":
            take()
            f = _and(f, unary())
        return f

    def unary():
        tok = take()
        if tok == "!":
            return _not(unary())
        if tok == "(":
            f = disjunction()
            if take() != ")":
                raise error(f"unbalanced parenthesis in formula {text!r}")
            return f
        if tok in ("", "&", "|", ")"):
            raise error(f"expected a word in formula {text!r}, "
                        f"found {tok or 'the end'!r}")
        return atom(tok)

    f = disjunction()
    if tokens[at]:
        raise error(f"trailing input {tokens[at]!r} in formula {text!r}")
    return f


def _not(f):
    return lambda letter: not f(letter)


def _and(f, g):
    return lambda letter: f(letter) and g(letter)


def _or(f, g):
    return lambda letter: f(letter) or g(letter)


def parse_label_formula(text: str) -> tuple:
    """Compile a spec formula over proposition names, with ``true`` as its
    one constant; returns the predicate and the names it mentions."""
    names = set()

    def atom(word: str):
        if word == "true":
            return lambda letter: True
        names.add(word)
        return lambda letter: word in letter

    return parse_formula(text, atom, ModelError), frozenset(names)


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lmdp:
    """Labeled Markov decision process with a single initial state.

    ``trans[(s, a)]`` maps successor state to probability; rows sum to 1
    within PROB_TOL.  ``reward`` is sparse over (s, a, s') with default 0.
    """

    states: tuple
    actions: tuple
    enabled: Mapping[str, tuple]
    trans: Mapping[tuple, Mapping[str, float]]
    reward: Mapping[tuple, float]
    ap: tuple
    labels: Mapping[str, frozenset]
    initial: str

    def reward_value(self, s: str, a: str, s2: str) -> float:
        return self.reward.get((s, a, s2), 0.0)

    def letter(self, s: str, alphabet: Iterable[str]) -> frozenset:
        """Label set restricted to an automaton alphabet; propositions the
        automaton knows but the model does not evaluate false."""
        return frozenset(self.labels[s]) & frozenset(alphabet)


def validate_lmdp(m: Lmdp) -> Lmdp:
    if m.initial not in m.states:
        raise ModelError(f"initial state {m.initial!r} is not a declared state")
    if len(set(m.actions)) != len(m.actions):
        raise ModelError(f"duplicate action id in {list(m.actions)!r}")
    seen = set()
    for s in m.states:
        if s in seen:
            raise ModelError(f"duplicate state id {s!r}")
        seen.add(s)
        acts = m.enabled.get(s, ())
        if not acts:
            raise ModelError(f"state {s!r} has no enabled action")
        for a in acts:
            if a not in m.actions:
                raise ModelError(f"state {s!r} enables unknown action {a!r}")
            row = m.trans.get((s, a))
            if not row:
                raise ModelError(f"missing transition row for ({s!r}, {a!r})")
            total = 0.0
            for s2, p in row.items():
                if s2 not in seen and s2 not in m.states:
                    raise ModelError(
                        f"transition ({s!r}, {a!r}) targets unknown state {s2!r}")
                if not -PROB_TOL <= p <= 1 + PROB_TOL:     # NaN too
                    raise ModelError(
                        f"probability {p} out of range in row ({s!r}, {a!r})")
                total += p
            if not abs(total - 1.0) <= PROB_TOL:
                raise ModelError(
                    f"row ({s!r}, {a!r}) sums to {total!r}, expected 1")
        for p in m.labels.get(s, frozenset()):
            if p not in m.ap:
                raise ModelError(
                    f"state {s!r} carries label {p!r} not listed in ap")
    return m


# ---------------------------------------------------------------------------
# JSON model format
# ---------------------------------------------------------------------------

def _names(value, field: str) -> tuple:
    """A list of names; a string would otherwise read as its characters."""
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{field} must be a list, not {value!r}")
    return tuple(value)


def model_from_json(doc: dict) -> Lmdp:
    try:
        state_docs = list(doc["states"])
        actions = _names(doc["actions"], "actions")
        initial = doc["initial"]
        tr_docs = list(doc["transitions"])
        reward_docs = list(doc.get("rewards", []))
        states = tuple(sd["id"] for sd in state_docs)
        labels = {sd["id"]: frozenset(_names(sd.get("labels", []),
                                             f"labels of {sd['id']!r}"))
                  for sd in state_docs}
        ap = _names(doc["ap"], "ap") if "ap" in doc else tuple(sorted(
            set().union(*labels.values()) if labels else set()))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelError(
            f"model file has a missing or mistyped field: {exc!r}") from exc

    trans: dict = {}
    enabled: dict = {}
    for t in tr_docs:
        try:
            s, a, s2, p = t["from"], t["action"], t["to"], float(t["p"])
            row = trans.setdefault((s, a), {})
            duplicate = s2 in row
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed transition entry {t!r}") from exc
        if s not in labels:
            raise ModelError(f"transition from undeclared state {s!r}")
        if a not in actions:
            raise ModelError(f"transition uses undeclared action {a!r}")
        if duplicate:
            raise ModelError(f"duplicate transition {s!r} -{a!r}-> {s2!r}")
        row[s2] = p
    for (s, a) in trans:
        enabled.setdefault(s, [])
        if a not in enabled[s]:
            enabled[s].append(a)
    # Keep the declared action order within each state.
    enabled = {s: tuple(a for a in actions if a in acts)
               for s, acts in enabled.items()}

    reward: dict = {}
    for r in reward_docs:
        try:
            key = (r["from"], r["action"], r["to"])
            reward[key] = float(r["r"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed reward entry {r!r}") from exc
        if not math.isfinite(reward[key]):
            raise ModelError(f"reward is not a finite number: {r!r}")
        if key[2] not in trans.get(key[:2], ()):
            raise ModelError(f"reward on a move with no transition: {r!r}")

    m = Lmdp(states=states, actions=actions, enabled=enabled, trans=trans,
             reward=reward, ap=ap, labels=labels, initial=initial)
    return validate_lmdp(m)


def model_to_json(m: Lmdp) -> dict:
    doc = {
        "states": [{"id": s, "labels": sorted(m.labels.get(s, ()))}
                   for s in m.states],
        "actions": list(m.actions),
        "ap": list(m.ap),
        "initial": m.initial,
        "transitions": [
            {"from": s, "action": a, "to": s2, "p": p}
            for s in m.states for a in m.enabled[s]
            for s2, p in sorted(m.trans[(s, a)].items())
        ],
    }
    rewards = [
        {"from": s, "action": a, "to": s2, "r": r}
        for (s, a, s2), r in sorted(m.reward.items()) if r != 0.0
    ]
    if rewards:
        doc["rewards"] = rewards
    return doc


def load_model(path) -> Lmdp:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:       # not UTF-8, or not JSON
        raise ModelError(f"cannot parse model file {path}: {exc}") from exc
    return model_from_json(doc)


def save_model(m: Lmdp, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(m), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SsInterval:
    formula: tuple          # (predicate, names) from parse_label_formula
    source: str
    lower: float
    upper: float


@dataclass(frozen=True)
class SsLtlSpec:
    """An automaton reference plus steady-state interval constraints."""

    dra_source: str
    ss: tuple


def spec_from_json(doc: dict, base_dir: Optional[str] = None) -> SsLtlSpec:
    import os

    if not isinstance(doc, dict):
        raise ModelError("spec file must hold a JSON object")
    dra = doc.get("dra")
    if not isinstance(dra, str):
        raise ModelError("spec file needs a 'dra' path")
    if base_dir is not None and not os.path.isabs(dra):
        dra = os.path.normpath(os.path.join(base_dir, dra))
    entries = doc.get("ss", [])
    if not isinstance(entries, list):
        raise ModelError("spec field 'ss' must be a list")
    intervals = []
    for entry in entries:
        try:
            text = entry["formula"]
            formula = parse_label_formula(text)
            lower = float(entry["lower"])
            upper = float(entry["upper"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed ss entry {entry!r}") from exc
        if not (math.isfinite(lower) and lower <= upper
                and math.isfinite(upper)):
            raise ModelError(f"ss interval for {text!r} needs finite bounds "
                             f"with lower <= upper, not [{lower}, {upper}]")
        intervals.append(SsInterval(formula, text, lower, upper))
    return SsLtlSpec(dra_source=dra, ss=tuple(intervals))


def load_spec(path) -> SsLtlSpec:
    import os

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:       # not UTF-8, or not JSON
        raise ModelError(f"cannot parse spec file {path}: {exc}") from exc
    return spec_from_json(doc, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Labeled subsets
# ---------------------------------------------------------------------------

def labeled_subset(m: Lmdp, psi: Union[tuple, str]) -> frozenset:
    """States where ``psi`` (text, or ``parse_label_formula``'s result)
    holds under each state's label set.

    Raises ModelError for propositions outside ``m.ap``, wherever they occur
    in the formula.
    """
    pred, names = psi if isinstance(psi, tuple) else parse_label_formula(psi)
    unknown = sorted(names - set(m.ap))
    if unknown:
        raise ModelError(f"unknown proposition {unknown[0]!r}")
    return frozenset(s for s in m.states
                     if pred(m.labels.get(s, frozenset())))


# ---------------------------------------------------------------------------
# Gridworld generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    width: int
    height: int
    seed: int = 0
    reward_mode: str = "bernoulli01"
    dynamics: str = "deterministic"
    slip_main: float = 0.8

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ModelError("grid dimensions must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ModelError(f"grid seed must be in 0 .. 2**64-1, "
                             f"not {self.seed!r}")
        if self.dynamics not in ("deterministic", "slip"):
            raise ModelError(f"unknown dynamics {self.dynamics!r}")
        if self.reward_mode not in ("bernoulli01", "zero"):
            raise ModelError(f"unknown reward mode {self.reward_mode!r}")


def grid_state_id(row: int, col: int, width: int) -> str:
    return f"s{row * width + col}"


def generate_grid(g: GridSpec) -> Lmdp:
    """Random gridworld: four cardinal actions everywhere, one cell per move
    (bounded by walls), labels a/b/c/d over random quarters, per-(state,
    action) rewards drawn uniformly from {0, 1}.

    Pure function of the spec: equal seeds give structurally equal models.
    """
    w, h = g.width, g.height
    n = w * h
    rng = np.random.default_rng(np.uint64(g.seed))
    states = tuple(grid_state_id(r, c, w) for r in range(h) for c in range(w))

    ap = ("a", "b", "c", "d")
    labels: dict = {s: frozenset() for s in states}
    perm = rng.permutation(n)
    sizes = [n // 4 + (1 if i < n % 4 else 0) for i in range(4)]
    start = 0
    for prop, size in zip(ap, sizes):
        for idx in perm[start:start + size]:
            labels[states[int(idx)]] = frozenset([prop])
        start += size

    def cell(row, col):
        return grid_state_id(row, col, w)

    def move(row, col, action):
        dr, dc = _GRID_MOVES[action]
        r2, c2 = row + dr, col + dc
        if 0 <= r2 < h and 0 <= c2 < w:
            return r2, c2
        return row, col  # blocked: stay in place

    trans: dict = {}
    enabled = {s: GRID_ACTIONS for s in states}
    for r in range(h):
        for c in range(w):
            s = cell(r, c)
            for a in GRID_ACTIONS:
                row: dict = {}
                if g.dynamics == "deterministic":
                    row[cell(*move(r, c, a))] = 1.0
                else:
                    lat1, lat2 = _LATERAL[a]
                    p_lat = (1.0 - g.slip_main) / 2.0
                    for direction, p in ((a, g.slip_main), (lat1, p_lat),
                                         (lat2, p_lat)):
                        tgt = cell(*move(r, c, direction))
                        row[tgt] = row.get(tgt, 0.0) + p
                trans[(s, a)] = row

    reward: dict = {}
    if g.reward_mode == "bernoulli01":
        draws = rng.integers(0, 2, size=n * len(GRID_ACTIONS))
        i = 0
        for s in states:
            for a in GRID_ACTIONS:
                r_val = float(draws[i])
                i += 1
                if r_val != 0.0:
                    for s2 in trans[(s, a)]:
                        reward[(s, a, s2)] = r_val

    m = Lmdp(states=states, actions=GRID_ACTIONS, enabled=enabled, trans=trans,
             reward=reward, ap=ap, labels=labels, initial=states[0])
    return validate_lmdp(m)
