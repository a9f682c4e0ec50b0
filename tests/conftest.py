"""Shared fixtures: the ray table and derived structures, built once."""
import pytest

from bks5 import catalog
from bks5.bases import build_ortho_graph, enumerate_maximal_bases
from bks5.pauli import CommutingSet, make_pauli
from bks5.rays import Ray, RayTable, build_ray_table, joint_eigenrays
from bks5.search import find_partitions


@pytest.fixture(scope="session")
def ray_table():
    return build_ray_table()


@pytest.fixture(scope="session")
def ortho_graph(ray_table):
    return build_ortho_graph(ray_table)


@pytest.fixture(scope="session")
def proof_bases():
    return catalog.proof_bases()


@pytest.fixture(scope="session")
def block_bases():
    return catalog.block_bases()


@pytest.fixture(scope="session")
def all_bases(ortho_graph):
    return enumerate_maximal_bases(ortho_graph)


@pytest.fixture(scope="session")
def all_partitions(all_bases):
    return find_partitions(all_bases)


MERMIN_CONTEXTS = [
    ("XI", "IX", "XX"),
    ("IZ", "ZI", "ZZ"),
    ("XZ", "ZX", "YY"),
    ("XI", "IZ", "XZ"),
    ("IX", "ZI", "ZX"),
    ("XX", "ZZ", "YY"),
]


@pytest.fixture(scope="session")
def mermin_table():
    """24 distinct two-qubit rays from the six three-operator contexts."""
    seen = {}
    contexts = []
    for specs in MERMIN_CONTEXTS:
        ops = tuple(make_pauli(s) for s in specs[:2])
        rays = joint_eigenrays(CommutingSet("+".join(specs), ops))
        ids = []
        for r in rays:
            key = r.entries
            if key not in seen:
                seen[key] = len(seen) + 1
            ids.append(seen[key])
        contexts.append(tuple(sorted(ids)))
    rays = tuple(Ray(entries, rid) for entries, rid in
                 sorted(seen.items(), key=lambda kv: kv[1]))
    return RayTable(rays=rays, block_map={}), contexts
