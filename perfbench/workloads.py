"""The three workloads: map files and CLI argument lists built from a seed.

An operation is one ``degreelab`` CLI invocation together with the exact
truth the oracle checks its report against.  Every pass of a run repeats
the same list of operations in the same order.

Each list holds two kinds of cases.  Anchors are fixed instances that
carry most of the cost of a pass and every failure known when the
benchmark was written (see CHANGES.md), so every run measures them.  The
corpus is drawn from fixed random streams; its operations are cheap
(5 to 300 ms each) and set op_p50_s.  In the collide and inject lists a
smaller part drawn the same way from the seed varies the inputs between
runs.  In the fibers list the seed orients every case instead, which
changes the inputs but not the work (see generators.oriented).  Keeping
the expensive, failure-prone and most of the cheap work the same for
every seed is what keeps the seed-to-seed spread of the metrics small.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import generators as gen
from exactpoly import eval_map, to_text

WORKLOADS = ("fibers", "collide", "inject")


@dataclass(frozen=True)
class Op:
    command: str
    argv: tuple[str, ...]
    truth: object  # a case record from generators


def _point(p) -> str:
    return ",".join(str(Fraction(c)) for c in p)


def _cube(n: int, radius) -> str:
    return ",".join(f"{-radius}:{radius}" for _ in range(n))


class _Writer:
    """Writes map files under one directory and keeps their digests."""

    def __init__(self, root: Path):
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)
        self.digests: dict[str, str] = {}

    def map(self, name: str, components, params: int = 0) -> str:
        doc = {"name": name, "n": len(components), "components": [to_text(c) for c in components]}
        if params:
            doc["parameters"] = params
        raw = (json.dumps(doc, indent=2) + "\n").encode()
        path = self.root / f"{name}.map"
        path.write_bytes(raw)
        rel = path.as_posix()
        self.digests[rel] = hashlib.sha256(raw).hexdigest()
        return rel


def _rooted(rng: random.Random, roots: tuple[int, ...], max_radius: int = 6):
    while True:
        c = gen.rooted_case(rng, roots, factors=1)
        if c.radius <= max_radius:
            return c


def _fibers(rng: random.Random, w: _Writer) -> list[Op]:
    # anchors, each solved and counted (fibers, degree --method both): the
    # first six maps of acceptance criterion 3, whose n = 3 maps 1, 3 and 5
    # make the integral estimate read [0.0, 0.0]; map 1 is only counted,
    # since its fibers call (1.6 s) would repeat the count's own solve;
    # n = 3 fibers with 9 and 12 roots that end depth_exceeded and one
    # with 12 roots that completes; n = 2 fibers with 6 and 9 roots of
    # both signs
    c3 = gen.criterion3_cases(random.Random(33), 18)
    anchors = [(f"c3anchor{k}", c3[k]) for k in (0, 2, 3, 4, 5)]
    anchors += [("rootanchor0", _rooted(random.Random(15), (1, 3, 3))),
                ("rootanchor1", _rooted(random.Random(36), (2, 2, 3))),
                ("rootanchor2", _rooted(random.Random(3), (2, 2, 3))),
                ("rootanchor3", _rooted(random.Random(2), (2, 3))),
                ("rootanchor4", _rooted(random.Random(4), (3, 3))),
                ("rootanchor5", _rooted(random.Random(7), (3, 3)))]
    # anchors, counted only: criterion-3 map 1, and the n = 3 maps 9, 11
    # and 17, whose counts take 0.5 to 0.8 s like those of maps 3 and 5:
    # together they form the plateau of similar latencies where op_tail_s
    # lies, so that it does not hang on a single operation
    counted = [(f"c3anchor{k}", c3[k]) for k in (1, 9, 11, 17)]
    # anchors, solved only: with a single root on the second axis the
    # solver ends depth_exceeded on most maps (17 in 20 for both patterns),
    # and with a single root on the first axis on some
    solved = [("singleanchor0", _rooted(random.Random(40), (2, 1))),
              ("singleanchor1", _rooted(random.Random(41), (3, 1))),
              ("singleanchor2", _rooted(random.Random(41), (1, 3)))]
    # corpus, solved only: root patterns that complete on every map tried
    corpus = random.Random(2022)
    solved += [(f"aut2c_{k}", gen.automorphism_case(corpus, 2, 4)) for k in range(64)]
    solved += [(f"rootedc_{k}", _rooted(corpus, roots))
               for k, roots in enumerate([(2, 2), (2, 3)] * 8)]
    # The seed orients every case: it picks the sign of each component
    # (and of the target entry with it).  The program sees other map
    # files and targets for every seed but does the same work (see
    # generators.oriented), so the seed cannot move the metrics.
    ops = []
    for commands, cases in ((("fibers", "degree"), anchors), (("degree",), counted),
                            (("fibers",), solved)):
        for name, c in cases:
            c = gen.oriented(c, tuple(rng.choice((-1, 1)) for _ in range(c.n)))
            path = w.map(name, c.components)
            common = ("--map", path, f"--box={_cube(c.n, c.radius)}", f"--z={_point(c.z)}")
            if "fibers" in commands:
                ops.append(Op("fibers", ("fibers",) + common, c))
            if "degree" in commands:
                ops.append(Op("degree", ("degree",) + common + ("--method", "both"), c))
    return ops


def _collide(rng: random.Random, w: _Writer, pinchuk: gen.MapCase) -> list[Op]:
    ops = []
    pin = str(Path("fixtures") / "pinchuk.map")
    box = f"--box={_cube(2, 2)}"
    # anchors: at 2048 samples collision seed 0 finds a witness on the
    # Pinchuk map and seed 1 does not; the full-box sign survey spends its
    # whole box budget; n = 3 fold and triangular maps
    for s in (0, 1):
        ops.append(Op("collide", ("collide", "--map", pin, box, "--samples", "2048",
                                  "--seed", str(s)), pinchuk))
    ops.append(Op("analyze", ("analyze", "--map", pin, box, "--max-boxes", "512"), pinchuk))
    anchor = random.Random(3)
    for k in range(2):
        for case in (gen.fold_case(anchor, 3), gen.triangular_case(anchor, 3)):
            path = w.map(f"anchor{case.name}_{k}", case.components)
            ops.append(Op("collide", ("collide", "--map", path,
                                      f"--box={_cube(case.n, case.radius)}",
                                      "--samples", "1024", "--seed", str(k)), case))
    # corpus and seeded: sign surveys of the Pinchuk map on 2x2 sub-boxes,
    # where the 64-box budget always runs out, and n = 2 fold
    # (non-injective) and triangular (injective) maps
    for tag, stream, count in (("c", random.Random(2022), 3), ("", rng, 1)):
        for k in range(8 * count):
            lo = [Fraction(stream.randint(-8, 0), 4) for _ in range(2)]
            sub = ",".join(f"{a}:{a + 2}" for a in lo)
            ops.append(Op("analyze", ("analyze", "--map", pin, f"--box={sub}", "--samples",
                                      "512", "--max-boxes", "64",
                                      "--seed", str(stream.randrange(1 << 16))), pinchuk))
        for k in range(4):
            for case, samples in ((gen.fold_case(stream, 2), "512"),
                                  (gen.triangular_case(stream, 2), "256")):
                path = w.map(f"{case.name}{tag}_{k}", case.components)
                common = ("--map", path, f"--box={_cube(case.n, case.radius)}",
                          "--seed", str(stream.randrange(1 << 16)))
                ops.append(Op("collide", ("collide",) + common + ("--samples", samples), case))
                if k == 0:
                    ops.append(Op("analyze", ("analyze",) + common, case))
    return ops


def _inject(rng: random.Random, w: _Writer) -> list[Op]:
    ops = []

    def inject(name, case):
        path = w.map(name, case.components)
        argv = ["inject", "--map", path]
        for q in case.queries:
            argv.append(f"--z={_point(q)}")
        ops.append(Op("inject", tuple(argv), case))

    def homotopy(name, fam):
        path = w.map(name, fam.components, params=1)
        grid = ",".join(str(t) for t in fam.t_grid)
        ops.append(Op("homotopy", ("homotopy", "--map", path,
                                   f"--box={_cube(fam.n, fam.radius)}",
                                   f"--z={_point(fam.z)}", f"--t-grid={grid}"), fam))

    # anchors: the map drawn from random.Random(16) with query (25, -3)
    # keeps doubling its radius after path_segment_clearance reports "split
    # budget exhausted", until the deadline; the second map drawn from
    # random.Random(1) is a Druzkowski map whose queries certify; six n = 2
    # maps with eight near queries each, picked from random.Random(100 + k),
    # k < 16, for a cost near 1 s each: with r1map1 they form the plateau
    # of similar latencies where op_tail_s lies
    split = gen.keller_case(random.Random(16), 2, queries=1)
    inject("r16split", replace(split, queries=((Fraction(25), Fraction(-3)),)))
    anchor = random.Random(1)
    inject("r1map0", gen.keller_case(anchor, 2))
    inject("r1map1", gen.keller_case(anchor, 3))
    anchor = random.Random(2)
    for k in range(2):
        homotopy(f"family3anchor{k}", gen.family_case(anchor, 3))
    for k in (1, 3, 5, 7, 10, 13):
        inject(f"aut2anchor{k}", _near_queries(random.Random(100 + k), 8))
    # corpus and seeded: one near query per map, and n = 2 families
    for tag, stream, count in (("c", random.Random(2022), 18), ("", rng, 4)):
        for k in range(count):
            inject(f"aut2{tag}_{k}", _near_queries(stream, 1))
            homotopy(f"family2{tag}_{k}", gen.family_case(stream, 2))
    return ops


def _near_queries(rng: random.Random, count: int):
    """An n = 2 automorphism with queries F(x0), x0 in [-1, 1]^2 and F(x0)
    in [-2, 2]^2, so each preimage lies in the pipeline's first box."""
    case = gen.keller_case(rng, 2, queries=0)
    queries = []
    while len(queries) < count:
        x0 = tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(2))
        q = eval_map(case.components, x0)
        if max(abs(c) for c in q) <= 2:
            queries.append(q)
    return replace(case, queries=tuple(queries))


def load_pinchuk(root: Path) -> gen.MapCase:
    """The fixture map: not injective, and det JF > 0 everywhere because it
    is a sum of squares that cannot vanish (see test_perfbench)."""
    doc = json.loads((root / "fixtures" / "pinchuk.map").read_text())
    comps = tuple(_parse_sum(text, doc["n"]) for text in doc["components"])
    return gen.MapCase("pinchuk", doc["n"], comps, injective=False, det_sign="positive",
                       radius=2)


def _parse_sum(text: str, n: int) -> dict:
    """Parse a sum of monomials c*x1^a*x2^b (the fixture's own format)."""
    out: dict = {}
    for sign, body in _terms(text):
        coeff = Fraction(1)
        exps = [0] * n
        for factor in body.split("*"):
            factor = factor.strip()
            if factor.startswith("x"):
                name, _, power = factor.partition("^")
                exps[int(name[1:]) - 1] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        out[key] = out.get(key, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


def _terms(text: str):
    text = text.replace(" ", "")
    sign, start = 1, 0
    if text[0] in "+-":
        sign, start = (-1 if text[0] == "-" else 1), 1
    body = ""
    for ch in text[start:]:
        if ch in "+-":
            yield sign, body
            sign, body = (-1 if ch == "-" else 1), ""
        else:
            body += ch
    yield sign, body


def build(workload: str, seed: int, root: Path, workdir: Path):
    """Write the map files for one workload and return (ops, inputs digest)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(workdir / "maps")
    if workload == "fibers":
        ops = _fibers(rng, w)
    elif workload == "collide":
        pinchuk = load_pinchuk(root)
        w.digests["fixtures/pinchuk.map"] = hashlib.sha256(
            (root / "fixtures" / "pinchuk.map").read_bytes()).hexdigest()
        ops = _collide(rng, w, pinchuk)
    else:
        ops = _inject(rng, w)
    digest = hashlib.sha256(json.dumps(
        {"ops": [op.argv for op in ops], "maps": w.digests}, sort_keys=True).encode()).hexdigest()
    return ops, digest
