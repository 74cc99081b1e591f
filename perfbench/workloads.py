"""Job lists, job execution and known answers for the three workloads.

A job is a JSON-able dict.  make_jobs(workload, seed) draws the list from
the seed alone, without importing coxfree, so the orchestrator can derive
the known answers while the worker process runs the jobs.

Known answers come from closed forms wherever one exists: kernel and
extension indices 2^(m n + ell [- p]) |W(Psi)|, Weyl group orders and
Coxeter numbers, chi = 1/|W| for finite and 0 for affine symbols,
involution class counts of type-A/B products, the Ratcliffe-Tschantz
covolumes and the three manifold volumes.  The tables marked PINNED
(admissible and specially admissible nodes, the extension exponent p,
lambda dimensions, the Coxeter half-turn defect) hold values printed by
coxfree when this benchmark was added; they are regression pins, not proofs.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

WORKLOADS = ("pipeline", "algebra", "cli")

# ---------------------------------------------------------------------------
# Closed forms

_E_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}
_E_COXETER = {"E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}
_E_RANKS = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}


def weyl_order(label):
    fam, n = _split(label)
    if fam == "A":
        return math.factorial(n + 1)
    if fam == "B":
        return 2 ** n * math.factorial(n)
    if fam == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return _E_ORDERS[label]


def coxeter_number(label):
    fam, n = _split(label)
    return {"A": n + 1, "B": 2 * n, "D": 2 * n - 2}.get(fam) or _E_COXETER[label]


def rank_of(label):
    fam, n = _split(label)
    return n if n else _E_RANKS[label]


def _split(label):
    if label[0] in "ABD":
        return label[0], int(label[1:])
    return label, 0


def weyl_args(label):
    """Arguments of coxfree.weyl_data for a label such as "D8" or "E6"."""
    fam, n = _split(label)
    return [fam, n] if n else [label]


# Covolumes of the simplex reflection groups (Ratcliffe-Tschantz 1997) and
# the manifold volumes and Euler characteristics they give.
COVOLUME = {4: (Fraction(1, 1440), 2), 6: (Fraction(1, 777600), 3),
            8: (Fraction(17, 9144576000), 4)}
VOLUME = {4: (Fraction(8, 3), 2, 2), 6: (Fraction(16, 15), 3, -2),
          8: (Fraction(34816, 105), 4, 2176)}

# PINNED: admissible node -> specially admissible, for the pendant symbols used.
SPECIAL = {
    "A2": {1: False, 2: False},
    "A4": {1: False, 2: False, 3: False, 4: False},
    "A5": {2: False, 4: False},
    "D4": {2: True},
    "G2": {1: True},
    "E6": {1: False, 2: False, 3: False, 4: False, 5: False, 6: True},
    "E7": {1: False, 2: False, 3: False, 5: False},
    "E8": {1: False, 2: False, 3: False, 4: False, 5: False, 6: False, 7: False, 8: True},
    "D8": {2: True, 4: False, 6: True},
}
# PINNED: exponent p of the cyclic 2-group extension.
EXTENSION_P = {"E6": 3, "E7": 1, "E8": 1, "D8": 1}
# PINNED: kernel/image defect of the Coxeter half-turn on L/2.
DPSI = {"A1": 1, "A3": 1, "A5": 1, "A7": 1, "A9": 1, "A11": 1,
        **{f"B{n}": n for n in range(2, 13)},
        **{f"D{n}": n if n % 2 == 0 else n - 2 for n in range(4, 13)},
        "E6": 2, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
# PINNED: admissible nodes (special flag) and lambda dimension per node.
_B_ADM = [[2, True], [4, False], [6, True], [8, False], [10, True]]
LATTICE = {
    "A8": ([[s, False] for s in range(1, 9)], [8] * 8),
    "A9": ([[2, False], [4, False], [6, False], [8, False]], [1, 9, 1, 9, 1, 9, 1, 9, 1]),
    "A10": ([[s, False] for s in range(1, 11)], [10] * 10),
    "A11": ([[4, False], [8, False]], [1, 1, 1, 11, 1, 1, 1, 11, 1, 1, 1]),
    "A12": ([[s, False] for s in range(1, 13)], [12] * 12),
    "B8": (_B_ADM[:3], [1, 8, 1, 8, 1, 8, 1, 2]),
    "B9": (_B_ADM[:4], [1, 9, 1, 9, 1, 9, 1, 9, 1]),
    "B10": (_B_ADM[:4], [1, 10, 1, 10, 1, 10, 1, 10, 1, 2]),
    "B11": (_B_ADM, [1, 11, 1, 11, 1, 11, 1, 11, 1, 11, 1]),
    "B12": (_B_ADM, [1, 12, 1, 12, 1, 12, 1, 12, 1, 12, 1, 2]),
    "D8": (_B_ADM[:3], [1, 8, 1, 8, 1, 8, 1, 1]),
    "D9": (_B_ADM[:3], [1, 9, 1, 9, 1, 9, 1, 1, 1]),
    "D10": (_B_ADM[:4], [1, 10, 1, 10, 1, 10, 1, 10, 1, 1]),
    "D11": (_B_ADM[:4], [1, 11, 1, 11, 1, 11, 1, 11, 1, 1, 1]),
    "D12": (_B_ADM, [1, 12, 1, 12, 1, 12, 1, 12, 1, 12, 1, 1]),
    "E8": ([[s, s == 8] for s in range(1, 9)], [8] * 8),
}


def kernel_index_formula(label, nodes, mode):
    n = rank_of(label)
    ell = sum(1 for s in nodes if not SPECIAL[label][s]) if mode == "hat" else 0
    return 2 ** (len(nodes) * n + ell) * weyl_order(label)


# ---------------------------------------------------------------------------
# Job lists

# (Psi, pendants, sets drawn).  All 37 nine-node sets and 5 of the 50
# ten-node sets a pass.  Taking the whole nine-node pool, with a fixed
# ten-node mix, keeps the cost of the list nearly independent of the seed,
# and puts both the median and the tail percentile (ten jobs above it)
# inside the nine-node cluster, whose job costs spread evenly, rather than
# in the gap between the nine-node and ten-node clusters.
_PIPELINE_STRATA = (("E6", 3, 20), ("E7", 2, 6), ("E8", 1, 8), ("D8", 1, 3),
                    ("E6", 4, 1), ("E7", 3, 1), ("E8", 2, 2), ("D8", 2, 1))
# Seconds one pass over a job list took when this benchmark was added
# (2-core x86-64 VM on a shared host whose speed drifted by up to 1.5x);
# run.py turns --seconds into a whole number of passes with it.
NOMINAL_PASS_S = {"pipeline": 34, "algebra": 9, "cli": 13}


def _pipeline_jobs(rng):
    jobs = []
    for label, size, count in _PIPELINE_STRATA:
        pool = [list(c) for c in itertools.combinations(sorted(SPECIAL[label]), size)]
        for nodes in rng.sample(pool, count):
            jobs.append({"kind": "pipeline", "psi": label, "nodes": rng.sample(nodes, len(nodes))})
    jobs += [{"kind": "volume", "dim": 6}, {"kind": "volume", "dim": 8}]
    rng.shuffle(jobs)
    return jobs


def _algebra_jobs(rng):
    # 21 jobs, an odd count: with whole passes the median is then two
    # samples of one job, inside the cluster of small lattice jobs, instead
    # of the mean of two jobs on either side of the gap above it.
    a4, a2 = rng.choice([1, 2, 3, 4]), rng.choice([1, 2])
    jobs = [{"kind": "closure", "psi": "A5", "node": rng.choice([2, 4]), "mode": "plain"},
            {"kind": "closures", "items": [["A4", a4, "plain"], ["A4", a4, "hat"]]}]
    # A2 and G2 closures take about a millisecond each, so they share a
    # job with D4 to keep every job well above 10 ms.
    for mode in ("plain", "hat"):
        jobs.append({"kind": "closures", "items": [["D4", 2, mode], ["A2", a2, mode], ["G2", 1, mode]]})
    jobs.append({"kind": "volume", "dim": 4})
    jobs += [{"kind": "lattice", "psi": label} for label in sorted(LATTICE)]
    rng.shuffle(jobs)
    return jobs


# Command-line jobs.  Each has argv (symbol files are written by the worker
# from "symbol") and the exit code the CLI contract gives it.

_WEYL_LABELS = ([f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 13)]
                + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8", "F4", "G2"])

_MALFORMED = (
    ["weyl", "info", "Z9"],
    ["modtwo", "weight", "A3"],
    ["modtwo", "dpsi", "A4"],
    ["tf", "build", "--psi", "E6", "--nodes", "1", "1"],
    ["tf", "build", "--psi", "E8", "--nodes", "9"],
    ["geometry", "covol", "5"],
    ["symbol", "classify", "--file", "@bad"],
)


def _weyl_tokens(label, rng):
    fam, n = _split(label)
    return [fam, str(n)] if n and rng.random() < 0.5 else [label]


def _simply_laced(rng):
    return rng.choice([f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)]
                      + ["E6", "E7", "E8"])


def _cli_jobs(rng):
    jobs = []

    def add(argv, **known):
        jobs.append({"kind": "cli", "argv": argv, "exit": 0, **known})

    for label in rng.sample(_WEYL_LABELS, 8):
        add(["weyl", "info"] + _weyl_tokens(label, rng), label=label)
    for _ in range(6):
        label = _simply_laced(rng)
        node = rng.randint(1, rank_of(label))
        add(["modtwo", "weight"] + _weyl_tokens(label, rng) + ["--node", str(node)],
            label=label, node=node)
    for label in rng.sample(sorted(DPSI), 5):
        add(["modtwo", "dpsi"] + _weyl_tokens(label, rng), label=label)
    for action in ("classify", "euler"):
        for _ in range(6):
            symbol, order = random_symbol(rng, affine=rng.random() < 0.3)
            add(["symbol", action, "--file", "@symbol"], symbol=symbol, order=order)
    for _ in range(4):
        symbol, classes = random_ab_symbol(rng)
        add(["involutions", "classes", "--file", "@symbol"], symbol=symbol, classes=classes)
    for label in ("E6", "E7", "E8", "D8"):
        nodes = rng.sample(sorted(SPECIAL[label]), rng.randint(1, 3))
        add(["tf", "build", "--psi"] + _weyl_tokens(label, rng) + ["--nodes"]
            + [str(s) for s in nodes], label=label, nodes=nodes)
    for dim in (4, 6, 8):
        for route in ("siegel", "gb"):
            add(["geometry", "covol", str(dim), "--route", route], dim=dim)
    # About a tenth are malformed, with exit 2 as the known answer.  The
    # empty family name is always in: coxfree 0.1.0 exits 1 on it.
    for argv in [["weyl", "info", ""]] + rng.sample(_MALFORMED, 4):
        jobs.append({"kind": "cli", "argv": argv, "exit": 2})
    rng.shuffle(jobs)
    return jobs


def make_jobs(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    return {"pipeline": _pipeline_jobs, "algebra": _algebra_jobs, "cli": _cli_jobs}[workload](rng)


# ---------------------------------------------------------------------------
# Generated Coxeter symbols (at most 6 nodes) with closed-form answers

_FINITE_PARTS = (
    # (name, node count, edges on local nodes 0..k-1, order)
    *[(f"A{k}", k, [(i, i + 1, 3) for i in range(k - 1)], math.factorial(k + 1)) for k in range(1, 5)],
    *[(f"B{k}", k, [(i, i + 1, 3) for i in range(k - 2)] + [(k - 2, k - 1, 4)],
       2 ** k * math.factorial(k)) for k in range(2, 5)],
    ("D4", 4, [(0, 1, 3), (1, 2, 3), (1, 3, 3)], 192),
    ("I2(5)", 2, [(0, 1, 5)], 10),
    ("I2(8)", 2, [(0, 1, 8)], 16),
    ("G2", 2, [(0, 1, 6)], 12),
    ("H3", 3, [(0, 1, 5), (1, 2, 3)], 120),
    ("F4", 4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)], 1152),
)
# Affine parts: Euler characteristic 0, so the whole product has chi = 0.
_AFFINE_PARTS = (
    ("~A1", 2, [(0, 1, "inf")], None),
    *[(f"~A{k}", k + 1, [(i, (i + 1) % (k + 1), 3) for i in range(k + 1)], None) for k in (2, 3)],
)


def _assemble(rng, parts):
    names = [f"v{i}" for i in range(sum(p[1] for p in parts))]
    rng.shuffle(names)
    edges, base = [], 0
    for _, size, local, _ in parts:
        for a, b, m in local:
            pair = [names[base + a], names[base + b]]
            rng.shuffle(pair)
            edges.append(pair + [m])
        base += size
    rng.shuffle(edges)
    nodes = sorted(names, key=lambda v: int(v[1:]))
    return {"nodes": nodes, "edges": edges}


def random_symbol(rng, affine):
    """A product of finite parts, plus one affine part when affine is set.
    Returns the symbol and its group order (None when infinite)."""
    parts = [rng.choice(_AFFINE_PARTS)] if affine else []
    budget = 6 - sum(p[1] for p in parts)
    while budget > 0:
        fits = [p for p in _FINITE_PARTS if p[1] <= budget]
        part = rng.choice(fits)
        parts.append(part)
        budget -= part[1]
        if rng.random() < 0.35:
            break
    order = None if affine else math.prod(p[3] for p in parts)
    return _assemble(rng, parts), order


def _involution_classes(name):
    fam, k = name[0], int(name[1:])
    if fam == "A":
        return (k + 1) // 2
    return sum(k - 2 * i + 1 for i in range(k // 2 + 1)) - 1


def random_ab_symbol(rng):
    """A product of type A and B parts with its involution class count:
    prod(c_i + 1) - 1, c(A_k) = floor((k+1)/2), and c(B_k) counts the
    signed cycle types (i two-cycles, j sign changes, 2i + j <= k)."""
    ab = [p for p in _FINITE_PARTS if p[0][0] in "AB"]
    parts, budget = [], 6
    while budget > 0 and (not parts or rng.random() < 0.6):
        part = rng.choice([p for p in ab if p[1] <= budget])
        parts.append(part)
        budget -= part[1]
    classes = math.prod(_involution_classes(p[0]) + 1 for p in parts) - 1
    return _assemble(rng, parts), classes


# ---------------------------------------------------------------------------
# Execution (worker side; imports coxfree lazily so jobs see traced bindings)

def prepare(workload):
    """Fill the Weyl data caches the jobs of a workload use."""
    if workload == "cli":
        return
    import coxfree.weyl as wy
    labels = set(SPECIAL) | set(LATTICE)
    for label in sorted(labels):
        wy.weyl_data(*weyl_args(label))


def execute(job):
    """Run one in-process job and return its raw result."""
    import coxfree.geometry as geo
    import coxfree.modtwo as m2
    import coxfree.torsionfree as tf
    import coxfree.weyl as wy

    kind = job["kind"]
    if kind == "pipeline":
        d = tf.build_dagger(wy.weyl_data(*weyl_args(job["psi"])), job["nodes"])
        cert = tf.certify_torsion_free(d, "hat")
        replayed = tf.replay_certificate(d, cert)
        return cert, replayed, tf.cyclic_extension(d)
    if kind == "volume":
        return geo.manifold_volume(job["dim"])
    if kind == "closure":
        return _closure(tf, wy, job["psi"], job["node"], job["mode"])
    if kind == "closures":
        return [_closure(tf, wy, label, s, mode) for label, s, mode in job["items"]]
    if kind == "lattice":
        w = wy.weyl_data(*weyl_args(job["psi"]))
        adm = m2.admissible_nodes(w)
        lam = [m2.lambda_dim(w, s) for s in w.symbol.nodes]
        d = m2.dpsi(w) if w.coxeter_number % 2 == 0 else None
        return adm, lam, d
    raise ValueError(f"unknown job kind {kind!r}")


def _closure(tf, wy, label, node, mode):
    d = tf.build_dagger(wy.weyl_data(*weyl_args(label)), [node])
    return tf.kernel_index(d, mode, verify_cap=kernel_index_formula(label, [node], mode))


def summarize(job, raw):
    """JSON answer of an in-process job, computed outside the timed region."""
    import hashlib
    import json

    kind = job["kind"]
    if kind == "pipeline":
        cert, replayed, ext = raw
        digest = hashlib.sha256(json.dumps([cert.to_json(), ext.certificate.to_json()],
                                           sort_keys=True).encode()).hexdigest()
        return {"index": cert.index, "certified": cert.ok, "replayed": replayed,
                "ext_index": ext.index, "p": ext.p, "ext_ok": ext.certificate.ok,
                "certificates_sha256": digest}
    if kind == "volume":
        vol, chi, index, deck = raw
        return {"vol": [vol.coeff.numerator, vol.coeff.denominator, vol.power],
                "chi": [chi.numerator, chi.denominator], "index": index, "deck": deck}
    if kind in ("closure", "closures"):
        return {"index": raw}
    if kind == "lattice":
        adm, lam, d = raw
        return {"admissible": [[s, sp] for s, sp in adm], "lambda": lam, "dpsi": d}
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# Known answers

def check(job, answer):
    """Whether a completed job's answer equals the known one."""
    kind = job["kind"]
    if kind == "pipeline":
        label, nodes = job["psi"], job["nodes"]
        index = kernel_index_formula(label, nodes, "hat")
        return (answer["index"] == index and answer["certified"] and answer["replayed"]
                and answer["ext_ok"] and answer["p"] == EXTENSION_P[label]
                and answer["ext_index"] == index // 2 ** EXTENSION_P[label])
    if kind == "volume":
        coeff, power, chi = VOLUME[job["dim"]]
        return (answer["vol"] == [coeff.numerator, coeff.denominator, power]
                and answer["chi"] == [chi, 1])
    if kind == "closure":
        return answer["index"] == kernel_index_formula(job["psi"], [job["node"]], job["mode"])
    if kind == "closures":
        return answer["index"] == [kernel_index_formula(label, [s], mode)
                                   for label, s, mode in job["items"]]
    if kind == "lattice":
        adm, lam = LATTICE[job["psi"]]
        dp = DPSI.get(job["psi"])
        return answer == {"admissible": adm, "lambda": lam, "dpsi": dp}
    if kind == "cli":
        return _check_cli(job, answer)
    raise ValueError(f"unknown job kind {kind!r}")


def failed(job, answer):
    """A job failed when it raised, timed out or exited with an unexpected code."""
    if "error" in answer:
        return True
    return job["kind"] == "cli" and answer["exit"] != job["exit"]


def _check_cli(job, answer):
    out = answer.get("out")
    if job["exit"] != 0:
        return out is None
    if out is None:
        return False
    verb = job["argv"][0], job["argv"][1]
    if verb == ("weyl", "info"):
        label = job["label"]
        return (out["label"] == label and out["order"] == weyl_order(label)
                and out["h"] == coxeter_number(label) and len(out["exponents"]) == rank_of(label))
    if verb == ("modtwo", "weight"):
        return _is_weight_vector(job["label"], job["node"], out["coords"]) and out["node"] == job["node"]
    if verb == ("modtwo", "dpsi"):
        return out == {"d": DPSI[job["label"]]}
    if verb == ("symbol", "classify"):
        order = job["order"]
        return out["finite"] == (order is not None) and out.get("order") == order
    if verb == ("symbol", "euler"):
        order = job["order"]
        chi = Fraction(0) if order is None else Fraction(1, order)
        return out == {"chi": {"num": chi.numerator, "den": chi.denominator}}
    if verb == ("involutions", "classes"):
        return len(out["classes"]) == job["classes"]
    if verb == ("tf", "build"):
        label, nodes = job["label"], job["nodes"]
        plain = [s for s in nodes if not SPECIAL[label][s]]
        special = [s for s in nodes if SPECIAL[label][s]]
        return (out["psi"] == label and out["attachments"] == plain + special
                and out["ell"] == len(plain) and out["special"] == [False] * len(plain) + [True] * len(special)
                and len(out["symbol"]["nodes"]) == rank_of(label) + len(nodes))
    if verb == ("geometry", "covol"):
        coeff, power = COVOLUME[job["dim"]]
        return out["covol"] == {"num": coeff.numerator, "den": coeff.denominator, "pi_power": power}
    return False


def _simply_laced_edges(label):
    fam, n = _split(label)
    if fam == "A":
        return [(i, i + 1) for i in range(1, n)]
    if fam == "D":
        return [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    n = rank_of(label)
    return [(i, i + 1) for i in range(1, n - 1)] + [(3, n)]


def _is_weight_vector(label, s, coords):
    """u_s is the primitive vector with (x_t, u_s) = 0 for t != s and a
    positive coordinate at s; for simply laced types the pairing is the
    Cartan matrix 2I - adjacency."""
    n = rank_of(label)
    if len(coords) != n or coords[s - 1] <= 0 or math.gcd(*coords) != 1:
        return False
    adj = {i: set() for i in range(1, n + 1)}
    for a, b in _simply_laced_edges(label):
        adj[a].add(b)
        adj[b].add(a)
    pairing = [2 * coords[t - 1] - sum(coords[u - 1] for u in adj[t]) for t in range(1, n + 1)]
    return all(v == 0 for t, v in enumerate(pairing, 1) if t != s) and pairing[s - 1] > 0
