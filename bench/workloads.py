"""The four workloads: their inputs and the checks of their outputs.

Every check compares the program's output with oracle.py (which does not
import nabch) or with properties the method must have; none compares with
a stored copy of an earlier output.  A check returns the number of failed
operations in the sample it is given, and the problems it found.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

EXPECTED_CHECKS = (
    "hopf.coassociativity",
    "hopf.cocommutativity",
    "hopf.counit laws",
    "hopf.division identities",
    "hopf.coproduct is multiplicative",
    "suops.p-operation is primitive",
    "suops.bracket tail antisymmetry",
    "suops.Phi multisymmetry",
    "suops.associative collapse of brackets",
    "suops.bracket recursion identity (three letters)",
    "dsw.Dynkin-Specht-Wever recursion",
    "dsw.symbolic bracketization",
    "dsw.tangent map equals gamma of y d/dx",
    "dsw.mixed-association correction",
    "magnus.P_J composition law",
    "magnus.tangent map inverse law",
    "magnus.pipeline agreement",
    "magnus.associative collapse equals Dynkin series",
    "magnus.n over all-ones equals B_k/k!",
    "cuts.cut formula matches series coefficients",
    "cuts.closed form for x^m y^n",
    "cuts.BCH-cut counts",
    "cuts.branches are nested or disjoint",
)

SWEEP_DEGREE = 7


@dataclass
class Workload:
    name: str
    request: Callable[[int], dict]  # seed -> the sample request
    ops_per_sample: int
    # (request, sample result, reference) -> (failed operations, problems)
    check: Callable[[dict, dict, object], tuple[int, list[str]]]
    # request -> reference values computed once per run, outside any timing
    reference: Callable[[dict], object] = lambda req: None


# ---------------------------------------------------------------------------
# Checks shared by the command workloads.


def check_word_sums(terms: list, degree: int) -> list[str]:
    """The monomial-basis series: well-formed terms, word sums equal to the
    classical BCH coefficients, and x^m y^n equal to the closed form."""
    problems = []
    seen = set()
    sums: dict[str, Fraction] = {}
    xmyn: dict[tuple[int, int], Fraction] = {}
    for term in terms:
        tree = term["monomial"]
        word = oracle.monomial_word(tree)
        key = json.dumps(tree)
        if key in seen:
            problems.append(f"monomial {key} listed twice")
        seen.add(key)
        if len(word) > degree:
            problems.append(f"monomial {key} above degree {degree}")
        c = Fraction(term["coeff"])
        if not c:
            problems.append(f"monomial {key} listed with coefficient 0")
        sums[word] = sums.get(word, 0) + c
        shape = oracle.xmyn_shape(tree)
        if shape:
            xmyn[shape] = c
    for word, want in oracle.classical_bch(degree).items():
        got = sums.get(word, 0)
        if got != want:
            problems.append(f"word {word}: bracketings sum to {got}, classical BCH has {want}")
    for m, n in oracle.xmyn_cases(degree):
        got, want = xmyn.get((m, n), 0), oracle.closed_form_xmyn(m, n)
        if got != want:
            problems.append(f"x^{m} y^{n}: coefficient {got}, closed form {want}")
    return problems


def check_monomial_series(series: dict, degree: int) -> list[str]:
    problems = []
    if series.get("truncation") != degree or Fraction(series.get("constant", "x")) != 0:
        problems.append("series header: want truncation %d and constant 0" % degree)
    return problems + check_word_sums(series["terms"], degree)


def check_primitive(combo: list, degree: int) -> list[str]:
    """The associative image of the primitive-basis series is the classical BCH."""
    image: dict[str, Fraction] = {}
    for term in combo:
        c = Fraction(term["coeff"])
        for w, v in oracle.assoc_image(oracle.parse_prim(term["expr"])).items():
            image[w] = image.get(w, 0) + c * v
    problems = [f"primitive image has word {w} above degree {degree}" for w in image if len(w) > degree]
    for word, want in oracle.classical_bch(degree).items():
        got = image.get(word, 0)
        if got != want:
            problems.append(f"primitive image of {word} is {got}, classical BCH has {want}")
    return problems


def _envelope(result: dict, command: str) -> tuple[dict | None, list[str]]:
    """Parse the CLI's JSON envelope; (None, problems) if it is unusable."""
    if result.get("rc") != 0:
        return None, [f"exit status {result.get('rc')}"]
    try:
        env = json.loads(result["stdout"])
    except (KeyError, ValueError) as exc:
        return None, [f"output is not JSON: {exc}"]
    if env.get("version") != "1" or env.get("command") != command:
        return None, [f"unexpected envelope header {env.get('version')!r}, {env.get('command')!r}"]
    return env, []


def _command_check(inner: Callable[[dict], list[str]], command: str):
    """One command is one operation: it fails on a non-zero exit status or
    on any problem in its output."""

    def check(req, result, reference):
        env, problems = _envelope(result, command)
        if env is not None:
            try:
                problems = inner(env["result"])
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                problems = [f"malformed result: {exc!r}"]
        return (1 if problems else 0), problems

    return check


def _expand_monomial(result: dict) -> list[str]:
    return check_monomial_series(result["monomial"], 8)


def _expand_both(result: dict) -> list[str]:
    problems = check_monomial_series(result["monomial"], 5)
    problems += check_primitive(result["primitive"], 5)
    if result.get("bases_agree") is not True:
        problems.append(f"bases_agree is {result.get('bases_agree')!r}")
    return problems


def _check_all(result: dict) -> list[str]:
    rows = result["checks"]
    names = [r["name"] for r in rows]
    problems = []
    if sorted(names) != sorted(EXPECTED_CHECKS):
        missing = set(EXPECTED_CHECKS) - set(names)
        extra = [n for n in names if n not in EXPECTED_CHECKS or names.count(n) > 1]
        problems.append(f"check list differs: missing {sorted(missing)}, unexpected {extra}")
    problems += [f"check failed: {r['name']}" for r in rows if r.get("passed") is not True]
    if result.get("passed") is not True:
        problems.append("suite verdict is not passed")
    return problems


# ---------------------------------------------------------------------------
# coeff-sweep: every monomial of degree 7, one query each.


def sweep_request(seed: int) -> dict:
    texts = oracle.monomial_texts(SWEEP_DEGREE)
    random.Random(seed).shuffle(texts)
    return {"monomials": texts}


def sweep_reference(req: dict) -> dict[str, Fraction]:
    """Route 1: the coefficients of bch_monomial(7), keyed by monomial text.

    This is the one reference taken from the program itself; the word sums
    and the closed form in :func:`check_sweep` are independent of it.
    """
    from nabch.magma import format_monomial
    from nabch.magnus import bch_monomial

    series = bch_monomial(SWEEP_DEGREE)
    return {format_monomial(m): Fraction(c) for m, c in series.terms.items()}


def check_sweep(req, result, reference) -> tuple[int, list[str]]:
    """A query fails if its answer differs from route 1, if its word's
    bracketings do not sum to the classical coefficient, or if it is
    x^m y^n and differs from the closed form."""
    texts = req["monomials"]
    answers = result.get("answers")
    if result.get("rc") != 0 or not isinstance(answers, list) or len(answers) != len(texts):
        return len(texts), [f"sample failed with exit status {result.get('rc')}"]
    bad: set[int] = set()
    problems = []
    values = []
    for i, (text, answer) in enumerate(zip(texts, answers)):
        try:
            values.append(Fraction(answer))
        except (TypeError, ValueError):
            values.append(None)
            bad.add(i)
            problems.append(f"{text}: unreadable answer {answer!r}")
    by_word: dict[str, list[int]] = {}
    for i, text in enumerate(texts):
        by_word.setdefault(oracle.text_word(text), []).append(i)
        if i in bad:
            continue
        want = reference.get(text, 0)
        if values[i] != want:
            bad.add(i)
            problems.append(f"{text}: {values[i]}, route 1 has {want}")
        shape = oracle.text_xmyn_shape(text)
        if shape and values[i] != oracle.closed_form_xmyn(*shape):
            bad.add(i)
            problems.append(f"{text}: {values[i]}, closed form {oracle.closed_form_xmyn(*shape)}")
    classical = oracle.classical_bch(SWEEP_DEGREE)
    for word, idx in by_word.items():
        if any(i in bad for i in idx):
            continue
        total = sum(values[i] for i in idx)
        if total != classical[word]:
            bad.update(idx)
            problems.append(f"word {word}: answers sum to {total}, classical BCH has {classical[word]}")
    return len(bad), problems


def _argv(*args: str) -> Callable[[int], dict]:
    # The command workloads have fixed inputs; the seed does not change them.
    return lambda seed: {"argv": list(args)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "expand-monomial",
            _argv("expand", "--basis", "monomial", "--degree", "8", "--format", "json"),
            1,
            _command_check(_expand_monomial, "expand"),
        ),
        Workload(
            "expand-both",
            _argv("expand", "--basis", "both", "--degree", "5", "--format", "json"),
            1,
            _command_check(_expand_both, "expand"),
        ),
        Workload(
            "coeff-sweep",
            sweep_request,
            len(oracle.monomial_texts(SWEEP_DEGREE)),
            check_sweep,
            sweep_reference,
        ),
        Workload(
            "check-all",
            _argv("check", "--suite", "all", "--degree", "4", "--format", "json"),
            1,
            _command_check(_check_all, "check"),
        ),
    )
}
