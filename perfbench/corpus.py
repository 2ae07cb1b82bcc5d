"""Workload inputs: fixed standard polytopes and seed-drawn documents.

Everything here is plain Python on ``Fraction``; nothing imports the
package under test, so a defect in the program cannot shape its own
inputs.  Polytopes are produced as JSON-style documents in the
``polytope-v1`` wire format (offsets as exact strings).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

TOWER_ROUNDS = {2: 6, 3: 3}
SEEDED_TOWER_ROUNDS = {2: 4, 3: 2}
SEEDED_TOWER_FRAMES = {2: 4, 3: 2}
SIMPLEX_DIMS = (2, 3, 4, 5)
CUBE_DIMS = (2, 3, 4)
SEEDED_CHECKS = 4

# The eight golden commands of the CLI test suite, run from tests/data.
CLI_COMMANDS = {
    "vertices": ["vertices", "simplex2.json"],
    "moments": ["moments", "simplex2.json"],
    "extremal-affine": ["extremal-affine", "simplex2.json", "--exclude", "hyp"],
    "blowup": [
        "blowup", "simplex2.json", "--vertex", "0,0", "--eps", "1/4", "--label", "E1"
    ],
    "tower": [
        "tower", "simplex2.json", "--facet", "hyp", "--rounds", "2",
        "--eps", "1/4,1/16",
    ],
    "check-obstruction": ["check-obstruction", "simplex2.json", "--facet", "hyp"],
    "check-hypotheses": ["check-hypotheses", "config3d.json"],
    "indicial-roots": [
        "indicial-roots", "--pairs", "trivial.json", "--window", "0,1",
        "--eta", "-0.3",
    ],
}

# Chop parameters for seeded inputs.  Every corner of the unit simplex
# and the unit cube has max_chop_parameter 1, so each value stays below
# half of it.
CHOP_EPS = tuple(
    Fraction(p, q)
    for p, q in ((1, 3), (1, 4), (1, 5), (2, 5), (1, 6), (1, 7), (2, 7), (3, 7), (1, 8), (3, 8))
)


def fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def tower_eps(round_index: int) -> Fraction:
    return Fraction(1, 4**round_index)


def _unit(n: int, k: int, sign: int = 1) -> tuple[int, ...]:
    return tuple(sign if i == k else 0 for i in range(n))


def simplex_facets(n: int) -> list[tuple[tuple[int, ...], Fraction, str]]:
    facets = [(_unit(n, k), Fraction(0), f"x{k}") for k in range(n)]
    facets.append((tuple(-1 for _ in range(n)), Fraction(-1), "hyp"))
    return facets


def cube_facets(n: int) -> list[tuple[tuple[int, ...], Fraction, str]]:
    facets = []
    for k in range(n):
        facets.append((_unit(n, k), Fraction(0), f"bot{k}"))
        facets.append((_unit(n, k, -1), Fraction(-1), f"top{k}"))
    return facets


def simplex_vertices(n: int) -> list[tuple[Fraction, ...]]:
    zero = tuple(Fraction(0) for _ in range(n))
    return [zero] + [tuple(Fraction(x) for x in _unit(n, k)) for k in range(n)]


def cube_vertices(n: int) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(x) for x in bits) for bits in itertools.product((0, 1), repeat=n)]


def to_doc(n: int, facets) -> dict:
    return {
        "dim": n,
        "facets": [
            {"normal": list(u), "offset": fmt(c), "label": label} for u, c, label in facets
        ],
    }


def standard_polytopes() -> dict[str, dict]:
    """Unit simplices and cubes of the obstruction corpus, by name."""
    docs = {f"simplex{n}": to_doc(n, simplex_facets(n)) for n in SIMPLEX_DIMS}
    docs.update({f"cube{n}": to_doc(n, cube_facets(n)) for n in CUBE_DIMS + (5,)})
    return docs


def obstruction_checks() -> list[tuple[str, str]]:
    """(polytope name, facet label) for every standard-frame check."""
    checks = []
    for name, doc in standard_polytopes().items():
        if name == "cube5":
            checks.append((name, "top0"))
        else:
            checks.extend((name, f["label"]) for f in doc["facets"])
    return checks


# --- seeded unimodular frames -------------------------------------------


def random_frame(rng: random.Random, n: int, moves: int):
    """A unimodular matrix U, its inverse, and an integer translation.

    U is a product of ``moves`` transvections (row_i += c * row_j with
    c = +-1) and a signed permutation, so its entries stay small.
    """
    u = [list(_unit(n, k)) for k in range(n)]
    inv = [list(_unit(n, k)) for k in range(n)]
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # E = I + c e_i e_j^T: U <- E U, U^-1 <- U^-1 E^-1.
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    # P maps e_k to signs[k] e_perm[k]; P^-1 = P^T.
    back = perm_inverse(perm)
    u = [[signs[k] * x for x in u[k]] for k in back]
    inv = [[row[k] * signs[k] for k in back] for row in inv]
    shift = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
    if not _is_inverse(u, inv):
        raise RuntimeError("frame construction lost unimodularity")
    return u, inv, shift


def perm_inverse(perm: list[int]) -> list[int]:
    out = [0] * len(perm)
    for k, p in enumerate(perm):
        out[p] = k
    return out


def apply_frame(facets, frame):
    """Facets of the image of {<u,x> >= c} under x -> U x + t."""
    _, inv, shift = frame
    n = len(inv)
    out = []
    for normal, offset, label in facets:
        new_normal = tuple(sum(inv[r][k] * normal[r] for r in range(n)) for k in range(n))
        new_offset = offset + sum((a * t for a, t in zip(new_normal, shift)), Fraction(0))
        out.append((new_normal, new_offset, label))
    return out


def _is_inverse(u, inv) -> bool:
    n = len(u)
    return all(
        sum(u[i][k] * inv[k][j] for k in range(n)) == (1 if i == j else 0)
        for i in range(n)
        for j in range(n)
    )


def chop(facets, vertex, eps: Fraction, label: str):
    """Facets after a corner chop at ``vertex``: sum of active normals."""
    active = [(u, c) for u, c, _ in facets if sum(a * x for a, x in zip(u, vertex)) == c]
    n = len(vertex)
    normal = tuple(sum(u[k] for u, _ in active) for k in range(n))
    base = sum((c for _, c in active), Fraction(0))
    return list(facets) + [(normal, base + eps, label)]


def seeded_tower_bases(seed: int) -> dict[str, dict]:
    """The unit simplices of the tower corpus in seed-drawn frames."""
    rng = random.Random(f"tower-{seed}")
    docs = {}
    for n, frames in sorted(SEEDED_TOWER_FRAMES.items()):
        for i in range(frames):
            frame = random_frame(rng, n, moves=n)
            docs[f"tower{n}d.seeded{i}"] = to_doc(n, apply_frame(simplex_facets(n), frame))
    return docs


def seeded_checks(seed: int) -> list[dict]:
    """Chopped 3D simplices and cubes, each in a seed-drawn frame.

    Each input gets 1-3 chops at distinct corners of the base, each
    with a parameter below half the corner's max_chop_parameter, so the
    chops never meet and every input is a valid Delzant polytope.
    Returned with the standard-frame document, the chop parameters and
    the facet to check.
    """
    rng = random.Random(f"obstruction-{seed}")
    n = 3
    out = []
    for i in range(SEEDED_CHECKS):
        kind = ("simplex", "cube")[i % 2]
        facets = simplex_facets(n) if kind == "simplex" else cube_facets(n)
        corners = simplex_vertices(n) if kind == "simplex" else cube_vertices(n)
        eps_list = []
        for j, corner in enumerate(rng.sample(corners, rng.randint(1, 3))):
            eps = rng.choice(CHOP_EPS)
            eps_list.append(eps)
            facets = chop(facets, corner, eps, f"E{j + 1}")
        frame = random_frame(rng, n, moves=n)
        facet = rng.choice(facets)[2]
        out.append(
            {
                "name": f"seeded{i}.{kind}{n}",
                "doc": to_doc(n, apply_frame(facets, frame)),
                "standard_doc": to_doc(n, facets),
                "base_volume": Fraction(1, 6) if kind == "simplex" else Fraction(1),
                "eps": eps_list,
                "facet": facet,
            }
        )
    return out


def cli_order(seed: int, pass_index: int) -> list[str]:
    names = sorted(CLI_COMMANDS)
    random.Random(f"cli-{seed}-{pass_index}").shuffle(names)
    return names
