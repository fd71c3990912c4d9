"""The benchmark's workloads: seeded request lists for the caliblab CLI.

A workload turns a seed into a request list, one argv per CLI call.  The
program receives only the argv; nothing else about the workload reaches it.

Every list has a fixed design of request shapes (case, patch, generator,
count, quadrature order, trial number).  The seed draws the CLI ``--seed`` of
each request and the request order.  The design is fixed because the
benchmark compares runs made with different seeds: when the seed also drew
planes, counts and orders, the median per-request CPU time of flat-algebra
varied by about 20% between seeds (quartile distance over median, five
seeds).  With the design fixed, every seed does the same amount of work.
"""
from __future__ import annotations

import random

CASES = ("um", "associative", "coassociative", "cayley")

# Axis planes per case, 1-based: (ambient dimension, calibrated, non-calibrated).
# The calibrated ones are the program's catalog of calibrated axis planes; the
# lists are copied here so that the inputs stay fixed when the program changes.
PLANES = {
    "um": (6,
           [(1, 2), (3, 4), (5, 6), (1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)],
           [(1, 3), (1, 4), (2, 5), (2, 6), (1, 3, 5, 6), (1, 4, 5, 6), (2, 3, 5, 6)]),
    "associative": (7,
                    [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
                     (3, 4, 7), (3, 5, 6)],
                    [(1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 4), (1, 2, 6),
                     (4, 5, 6), (5, 6, 7)]),
    "coassociative": (7,
                      [(4, 5, 6, 7), (2, 3, 6, 7), (2, 3, 4, 5), (1, 3, 5, 7),
                       (1, 3, 4, 6), (1, 2, 5, 6), (1, 2, 4, 7)],
                      [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 6), (1, 4, 5, 6),
                       (3, 4, 5, 6), (2, 4, 5, 7)]),
    "cayley": (8,
               [(1, 2, 3, 4), (5, 6, 7, 8), (1, 2, 5, 6), (3, 4, 7, 8),
                (1, 3, 5, 7), (2, 4, 6, 8), (1, 4, 5, 8), (2, 3, 6, 7)],
               [(1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 4, 5), (1, 3, 4, 5),
                (2, 3, 4, 5), (1, 2, 5, 7)]),
}

# curved patches: (case, patch, [(quadrature order, generator, copies)]).
# The per-request CPU metrics are rank statistics, so the design puts each
# inside a group of identical requests: ten graph-um-r6 order-12 random
# requests hold the median (ranks 14-23 of 36) and five graph-assoc-r7
# order-6 test-variation requests the tail (ranks 24-28), so neither metric
# flips between requests of different shapes.
CURVED = (
    ("um", "graph-um-r6", [(8, "test-variation", 4), (12, "test-variation", 5),
                           (8, "random", 4), (12, "random", 10)]),
    ("associative", "graph-assoc-r7", [(6, "test-variation", 5), (6, "random", 1),
                                       (8, "random", 1)]),
    ("coassociative", "graph-coassoc-r7", [(4, "random", 1), (4, "test-variation", 1),
                                           (5, "test-variation", 1)]),
    ("cayley", "graph-cayley-r8", [(4, "random", 1), (4, "test-variation", 1),
                                   (5, "test-variation", 1)]),
)

GENERATORS = ("random", "test-variation")


def _plane_name(axes, n) -> str:
    return "plane-" + "".join(str(a) for a in axes) + f"-r{n}"


def flat_algebra(rng: random.Random) -> list[list[str]]:
    """Every catalog plane once, calibrated and not; the generator alternates
    and the count cycles through 1..5 along each list, so both generators see
    every count.  U(m) 4-planes run as ``--k 2 --closed-omega``; Cayley
    requests with count 3 run with ``--keep-omega4-1``."""
    requests = []
    for case in CASES:
        n, good, bad = PLANES[case]
        for i, axes in enumerate(good + bad):
            count = 1 + (i // 2) % 5
            argv = ["theorem", "--case", case, "--patch", _plane_name(axes, n),
                    "--generator", GENERATORS[i % 2], "--count", str(count),
                    "--seed", str(rng.randrange(1000))]
            if case == "um" and len(axes) == 4:
                argv += ["--k", "2", "--closed-omega"]
            if case == "cayley" and count == 3:
                argv.append("--keep-omega4-1")
            requests.append(argv)
    for count in (2, 4):
        requests.append(["theorem", "--case", "um", "--k", "2", "--closed-omega",
                         "--patch", "t4-in-r6", "--count", str(count),
                         "--seed", str(rng.randrange(1000))])
    for trials in (1000, 4000):
        requests.append(["identities", "--trials", str(trials),
                         "--seed", str(rng.randrange(1000))])
    rng.shuffle(requests)
    return requests


def curved_patch(rng: random.Random) -> list[list[str]]:
    requests = []
    for case, patch, shapes in CURVED:
        for order, gen, copies in shapes:
            for _ in range(copies):
                requests.append(["theorem", "--case", case, "--patch", patch,
                                 "--generator", gen, "--count", "1",
                                 "--quad-order", str(order),
                                 "--seed", str(rng.randrange(3))])
    rng.shuffle(requests)
    return requests


def wavy_flow(rng: random.Random) -> list[list[str]]:
    # CLI seed 4 is the known near-miss of the d-omega route check; it stays in
    requests = [["theorem", "--case", "um", "--k", "2", "--patch", "t4-in-r6",
                 "--count", "1", "--seed", "4"]]
    requests.append(["minimal", "--count", "1", "--seed", str(rng.randrange(1000))])
    for trials in range(1, 21):
        requests.append(["smith", "--trials", str(trials),
                         "--seed", str(rng.randrange(1000))])
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "flat-algebra": flat_algebra,
    "curved-patch": curved_patch,
    "wavy-flow": wavy_flow,
}

# Why each workload is in the benchmark, and the self-time share of each layer
# in one traced pass of seed 0 (2 vCPUs, Python 3.11.7, numpy 2.4.6, one BLAS
# thread) at the commit that added the benchmark; shares move by a few points
# between runs.
WHY = {
    "flat-algebra": (
        "Axis-plane theorem requests in all four cases, closed U(m) on t4-in-r6 and "
        "identity suites: 5-400 ms requests whose cost is the CLI's per-request work "
        "and the batched kernels (h maps, d_coeffs_batch, einsum residuals); the "
        "per-node loops are bypassed.  Batching the per-node path should leave it "
        "unchanged.  Layer shares: structures 41%, variation 16%, decomposition 14%, "
        "cli 13%, fields 7%, exterior 5%, submanifold 3%."),
    "curved-patch": (
        "Graph patches with 64 to 625 quadrature nodes per experiment (orders 8/12 "
        "for k=2, 6/8 for k=3, 4/5 for k=4): time goes to per-node Python loops "
        "(cross products, Jacobians, frames, the defect integral), so a gain that "
        "scales with the node count shows here.  Layer shares: structures 38%, "
        "variation 28%, submanifold 19%, exterior 10%, fields 3%, cli 2%, "
        "decomposition 1%."),
    "wavy-flow": (
        "U(m) k=2 on the d-omega != 0 background (the near-miss CLI seed 4), the "
        "minimal-flow FD oracle with the divergence route and mean curvature, and "
        "the Smith suite: time goes to scalar field evaluators and the KForm API, "
        "and the FD oracles must not change when the analytic path is batched.  "
        "Layer shares: exterior 27%, fields 26%, smith 23%, submanifold 12%, "
        "variation 8%, cli 3%."),
}


def requests_for(workload: str, seed: int) -> list[list[str]]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
