"""Labeled MDP / Markov chain data model, Boolean label formulas, the JSON
model format, and the random-gridworld benchmark generator.

Probability rows are validated to sum to 1 within ``PROB_TOL`` (1e-12); all
fixture probabilities are dyadics or short decimals far above this.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from ssltl.errors import ModelError

PROB_TOL = 1e-12

GRID_ACTIONS = ("left", "down", "right", "up")
_GRID_MOVES = {"left": (0, -1), "down": (1, 0), "right": (0, 1), "up": (-1, 0)}
# Perpendicular slip directions for each intended move.
_LATERAL = {"left": ("up", "down"), "right": ("up", "down"),
            "up": ("left", "right"), "down": ("left", "right")}


# ---------------------------------------------------------------------------
# Label formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelFormula:
    """Expression tree over {true, proposition, and, not}.

    ``op`` is one of "true", "ap", "not", "and".  Disjunction is desugared at
    parse time via De Morgan, so it never appears in the tree.
    """

    op: str
    name: Optional[str] = None
    args: tuple["LabelFormula", ...] = ()


class _FormulaParser:
    """Recursive-descent parser for ``true | IDENT | ! f | f & f | f | f``
    with parentheses.  ``|`` binds loosest, then ``&``, then ``!``."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> LabelFormula:
        f = self._or()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ModelError(
                f"trailing input in formula {self.text!r} at offset {self.pos}")
        return f

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _or(self) -> LabelFormula:
        left = self._and()
        while self._peek() == "|":
            self.pos += 1
            right = self._and()
            # a | b  ==  !(!a & !b)
            left = LabelFormula("not", args=(
                LabelFormula("and", args=(LabelFormula("not", args=(left,)),
                                          LabelFormula("not", args=(right,)))),))
        return left

    def _and(self) -> LabelFormula:
        left = self._unary()
        while self._peek() == "&":
            self.pos += 1
            left = LabelFormula("and", args=(left, self._unary()))
        return left

    def _unary(self) -> LabelFormula:
        ch = self._peek()
        if ch == "!":
            self.pos += 1
            return LabelFormula("not", args=(self._unary(),))
        if ch == "(":
            self.pos += 1
            f = self._or()
            if self._peek() != ")":
                raise ModelError(f"unbalanced parenthesis in {self.text!r}")
            self.pos += 1
            return f
        return self._ident()

    def _ident(self) -> LabelFormula:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] in "_?"):
            self.pos += 1
        word = self.text[start:self.pos]
        if not word:
            raise ModelError(
                f"expected proposition in formula {self.text!r} at offset {start}")
        if word == "true":
            return LabelFormula("true")
        return LabelFormula("ap", name=word)


def parse_label_formula(text: str) -> LabelFormula:
    """Parse ``true | IDENT | ! f | f & f | f | f`` (parentheses allowed)."""
    return _FormulaParser(text).parse()


def eval_formula(f: LabelFormula, labels: frozenset, ap: Iterable[str]) -> bool:
    """Standard Boolean semantics; a proposition holds iff it is in ``labels``.

    Raises ModelError for propositions outside ``ap``.
    """
    ap = set(ap)
    def rec(g: LabelFormula) -> bool:
        if g.op == "true":
            return True
        if g.op == "ap":
            if g.name not in ap:
                raise ModelError(f"unknown proposition {g.name!r}")
            return g.name in labels
        if g.op == "not":
            return not rec(g.args[0])
        return rec(g.args[0]) and rec(g.args[1])
    return rec(f)


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

def model_from_json(doc: dict) -> Lmdp:
    try:
        state_docs = list(doc["states"])
        actions = tuple(doc["actions"])
        initial = doc["initial"]
        tr_docs = list(doc["transitions"])
        reward_docs = list(doc.get("rewards", []))
        states = tuple(sd["id"] for sd in state_docs)
        labels = {sd["id"]: frozenset(sd.get("labels", []))
                  for sd in state_docs}
        ap = tuple(doc["ap"]) if "ap" in doc else tuple(sorted(
            set().union(*labels.values()) if labels else set()))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelError(
            f"model file has a missing or mistyped field: {exc!r}") from exc

    trans: dict = {}
    enabled: dict = {}
    for t in tr_docs:
        try:
            s, a, s2, p = t["from"], t["action"], t["to"], float(t["p"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed transition entry {t!r}") from exc
        row = trans.setdefault((s, a), {})
        if s2 in row:
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
    formula: LabelFormula
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
        if not lower <= upper:      # NaN too
            raise ModelError(
                f"ss interval for {text!r} has lower {lower} > upper {upper}")
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

def labeled_subset(m: Lmdp, psi: Union[LabelFormula, str]) -> frozenset:
    """States where ``psi`` holds under each state's label set."""
    if isinstance(psi, str):
        psi = parse_label_formula(psi)
    return frozenset(s for s in m.states
                     if eval_formula(psi, m.labels.get(s, frozenset()), m.ap))


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
