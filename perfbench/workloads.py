"""The four benchmark workloads: seeded inputs, one pass, and output checks.

Every library call goes through a module attribute (``verify.analyze_map``,
not a name bound here), so the tracer's wrappers see the benchmark's own
calls as well as the library's internal ones.

A pass returns one ``Op`` per checked instance. An op fails when its call
raises or its output differs from what the input dictates; the pass digest
covers every output, so traced and untraced passes can be compared.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from incalg import endos, fields, posets, preservers, verify

EXPECTED_PATH = __file__.rsplit("/", 1)[0] + "/expected.json"

# Keys of CensusReport.to_json() and of its map records at the seed commit.
# The digest covers exactly these, so a later change may add telemetry keys
# without failing the output check; elapsed_seconds is a timing, not output.
CENSUS_KEYS = ("poset", "field", "matrix_space", "range", "complete",
               "oracle_count", "theorem_count", "consistent", "maps")
RECORD_KEYS = ("index", "matrix", "lambda", "psi", "strong", "bijective")

CLASSIFY_POSETS = ("chain:4", "diamond", "chain:5", "antichain:6", "antichain:7")
CLASSIFY_ACCEPT = 150   # valid preservers
CLASSIFY_LATE = 50      # radical entry in a diagonal row: fails only the rebuild
CLASSIFY_EARLY = 50     # diagonal value outside {0, 1}: fails from-vf-to-lb
LATE_LAW = "inv-pres-for-|K|>2"
EARLY_LAW = "from-vf-to-lb"
LEMMA_TRIALS = 20


@dataclass
class Op:
    kind: str            # accept / refute for classify-q, the instance otherwise
    seconds: float
    ok: bool
    output: object       # JSON-able output covered by the pass digest
    detail: str = ""


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def census_digest(doc: dict) -> str:
    body = {k: doc[k] for k in CENSUS_KEYS}
    body["maps"] = [{k: m[k] for k in RECORD_KEYS} for m in doc["maps"]]
    return digest(body)


def build_posets(specs) -> dict[str, posets.Poset]:
    """Builtin posets with every cached property the workloads read."""
    out = {}
    for spec in specs:
        p = posets.builtin_poset(spec)
        p.strict_pairs, p.basis_pairs, p.pair_index, p.dimension
        p.convolution_plan, p.longest_chain, p.covering_pairs
        out[spec] = p
    return out


class Workload:
    name = ""
    posets: tuple[str, ...] = ()

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.expected = expected.get(self.name, {})
        self.P = build_posets(self.posets)
        # times the library calls; reference.Reference.clock leaves out the
        # reference jobs that run inside them
        self.clock = time.perf_counter
        self.prepare()

    def prepare(self):
        """Generate the seeded inputs (part of set-up)."""

    def _timed(self, kind: str, call, check) -> Op:
        """Run one instance: time ``call``, then judge its output with
        ``check``, which returns (ok, json_output, detail)."""
        t0 = self.clock()
        try:
            result = call()
        except Exception as exc:  # a raising operation counts as failed
            return Op(kind, self.clock() - t0, False, None, f"{type(exc).__name__}: {exc}")
        dt = self.clock() - t0
        try:
            ok, output, detail = check(result)
        except (KeyError, TypeError, AttributeError) as exc:  # malformed output
            return Op(kind, dt, False, None, f"malformed output: {exc!r}")
        return Op(kind, dt, ok, output, detail)

    def run_pass(self) -> list[Op]:
        raise NotImplementedError


class CensusWorkload(Workload):
    def _check(self, key: str, result):
        report, doc = result
        want = self.expected[key]
        got = census_digest(doc)
        problems = []
        if report.oracle_count != report.theorem_count:
            problems.append(f"oracle {report.oracle_count} != theorem {report.theorem_count}")
        if report.oracle_count != want["survivors"]:
            problems.append(f"{report.oracle_count} survivors, pinned {want['survivors']}")
        if not report.consistent:
            problems.append("report not complete and consistent")
        if got != want["digest"]:
            problems.append(f"digest {got[:12]} != pinned {want['digest'][:12]}")
        return not problems, got, "; ".join(problems)


class CensusSparse(CensusWorkload):
    """chain:2 / F5: 1,953,125 matrices, 100 survivors, run as two adjacent
    ranges split at a seeded index and joined by merge_census."""

    name = "census-sparse"
    posets = ("chain:2",)

    def prepare(self):
        self.field = fields.PrimeField(5)
        self.space = self.field.p ** (self.P["chain:2"].dimension ** 2)
        self.split = random.Random(self.seed).randrange(1, self.space)

    def run_pass(self) -> list[Op]:
        poset = self.P["chain:2"]

        def call():
            a = verify.enumerate_preservers(poset, self.field, 0, self.split)
            b = verify.enumerate_preservers(poset, self.field, self.split, self.space)
            merged = verify.merge_census(a, b)
            return merged, merged.to_json()

        return [self._timed("chain:2/Fp5", call, lambda r: self._check("chain:2/Fp5", r))]


class CensusDense(CensusWorkload):
    """antichain:4 / F2 (65,536 matrices, 4,096 survivors) plus chain:2 / F3
    and antichain:3 / F3; per-survivor work dominates."""

    name = "census-dense"
    posets = ("antichain:4", "chain:2", "antichain:3")
    instances = (("antichain:4", 2), ("chain:2", 3), ("antichain:3", 3))

    def run_pass(self) -> list[Op]:
        ops = []
        for spec, p in self.instances:
            key = f"{spec}/Fp{p}"
            poset, field = self.P[spec], fields.PrimeField(p)

            def call(poset=poset, field=field):
                report = verify.enumerate_preservers(poset, field)
                return report, report.to_json()

            ops.append(self._timed(key, call, lambda r, key=key: self._check(key, r)))
        return ops


class ClassifyQ(Workload):
    """A seeded batch of maps over Q, each through analyze_map (the ``check``
    verb): valid preservers, late refutations and early refutations."""

    name = "classify-q"
    posets = CLASSIFY_POSETS

    def prepare(self):
        rng = random.Random(self.seed)
        field = fields.Rationals()
        radical = [s for s in CLASSIFY_POSETS if self.P[s].dimension > self.P[s].n]
        # each kind is spread evenly over its posets, so the batch's cost and
        # memory do not hinge on which posets a seed happens to draw
        plan = [(kind, names[i % len(names)])
                for kind, count, names in (("accept", CLASSIFY_ACCEPT, CLASSIFY_POSETS),
                                           ("late", CLASSIFY_LATE, radical),
                                           ("early", CLASSIFY_EARLY, CLASSIFY_POSETS))
                for i in range(count)]
        rng.shuffle(plan)
        self.maps = []
        for kind, spec_name in plan:
            poset = self.P[spec_name]
            spec = verify.random_preserver_spec(poset, field, rng)
            phi = preservers.build_preserver(spec)
            if kind != "accept":
                phi = self._corrupt(phi, spec, kind, rng)
            self.maps.append((kind, spec, phi))

    @staticmethod
    def _nonzero(rng: random.Random, exclude=()) -> Fraction:
        while True:
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if v and v not in exclude:
                return v

    def _corrupt(self, phi, spec, kind: str, rng: random.Random):
        """A unital non-preserver derived from a valid one."""
        poset, field = phi.poset, phi.field
        n, d = poset.n, poset.dimension
        rows = [list(r) for r in phi.rows]
        y = rng.randrange(n)
        if kind == "late":
            # delta has no radical part, so the map stays unital and every
            # subset-table law holds; only the rebuild differs
            rows[y][rng.randrange(n, d)] = field.scalar(self._nonzero(rng))
        else:
            # row y still sums to 1 on the diagonal columns, but
            # phi(e_{owner}) has the value 1 + c at y
            x = spec.endo.owners()[y]
            other = (x + 1 + rng.randrange(n - 1)) % n
            c = self._nonzero(rng, exclude=(Fraction(-1),))
            rows[y][x] = field.scalar(1 + c)
            rows[y][other] = field.scalar(-c)
        return preservers.LinearMap(poset, field, rows)

    @staticmethod
    def _check_report(kind: str, spec, report: dict):
        v = report["verdicts"]
        problems = []
        if not v["unital"]:
            problems.append("not unital")
        if kind == "accept":
            n = spec.poset.n
            if v["preserver"] is not True:
                problems.append(f"refuted: {report['witnesses'].get('preserver')}")
            elif report["lambda"] != endos.endo_to_json(spec.endo):
                problems.append("lambda differs from the generating spec")
            elif report["psi"] != preservers.linear_map_to_json(spec.radical_map)[n:]:
                problems.append("psi differs from the generating spec")
            if v["strong"] is not spec.endo.is_injective():
                problems.append(f"strong={v['strong']}")
        else:
            law = LATE_LAW if kind == "late" else EARLY_LAW
            witness = report["witnesses"].get("preserver") or ""
            if v["preserver"] is not False:
                problems.append("accepted a non-preserver")
            elif not witness.startswith(law + ":"):
                problems.append(f"expected law {law}, got {witness!r}")
            if report["lambda"] is not None:
                problems.append("normal form reported for a non-preserver")
        return not problems, report, "; ".join(problems)

    def run_pass(self) -> list[Op]:
        return [self._timed("accept" if kind == "accept" else "refute",
                       lambda: verify.analyze_map(phi),
                       lambda r: self._check_report(kind, spec, r))
                for kind, spec, phi in self.maps]


class Suites(Workload):
    """verify_inverse_preserver_results on chain:2 / F3, the lemma suite run
    exhaustively on chain:2 / F3 and randomized on diamond / F3."""

    name = "suites"
    posets = ("chain:2", "diamond")

    def prepare(self):
        self.field = fields.PrimeField(3)

    def _check(self, key: str, verdicts):
        failed = [v for v in verdicts if not v.passed]
        problems = []
        if failed:
            problems.append(f"{len(failed)} failing verdicts, first {failed[0].lemma}")
        if len(verdicts) != self.expected[key]:
            problems.append(f"{len(verdicts)} verdicts, pinned {self.expected[key]}")
        return not problems, [v.to_json() for v in verdicts], "; ".join(problems)

    def run_pass(self) -> list[Op]:
        c2, dia, f = self.P["chain:2"], self.P["diamond"], self.field
        calls = (
            ("inverse chain:2/Fp3",
             lambda: verify.verify_inverse_preserver_results(c2, f)),
            ("lemmas exhaustive chain:2/Fp3",
             lambda: verify.verify_lemma_suite(c2, f)),
            ("lemmas randomized diamond/Fp3",
             lambda: verify.verify_lemma_suite(dia, f, sample="randomized",
                                               seed=self.seed, trials=LEMMA_TRIALS)),
        )
        return [self._timed(key, call, lambda r, key=key: self._check(key, r))
                for key, call in calls]


WORKLOADS = {w.name: w for w in (CensusSparse, CensusDense, ClassifyQ, Suites)}
