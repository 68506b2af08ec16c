"""Seeded workload inputs, made with numpy only.

The tree generator does not call the package, so a change to the package's
random streams leaves the graph and CV inputs byte-identical.
"""

import json

import numpy as np


def random_tree(d, rng):
    """Parent array of a uniform random recursive tree; the root's parent is -1.

    Nodes are attached in a random order, each to a uniformly chosen node
    already in the tree, so the root is uniform over the d nodes.
    """
    order = rng.permutation(d)
    parent = np.full(d, -1, dtype=int)
    for i in range(1, d):
        parent[order[i]] = order[rng.integers(i)]
    return parent, order


def tree_edges(parent):
    """Sorted (j, k), j < k, edge list of a parent array."""
    return sorted((min(int(c), int(p)), max(int(c), int(p)))
                  for c, p in enumerate(parent) if p >= 0)


def tree_angles(d, n, seed, kappa=1.0):
    """(n, d) angles and the parent array: root uniform, each child = parent
    + a fixed random offset + von Mises(0, kappa) noise, wrapped to [0, 2pi).

    This is a torus graph with rotational coupling on exactly the tree edges.
    """
    rng = np.random.default_rng(seed)
    parent, order = random_tree(d, rng)
    offsets = rng.uniform(0.0, 2.0 * np.pi, size=d)
    X = np.empty((n, d))
    X[:, order[0]] = rng.uniform(0.0, 2.0 * np.pi, size=n)
    for node in order[1:]:
        X[:, node] = X[:, parent[node]] + offsets[node] + rng.vonmises(0.0, kappa, size=n)
    return np.mod(X, 2.0 * np.pi), parent


def write_tree_csv(path, d, n, seed):
    """Write the tree data as an angle CSV with a header; returns the truth edges."""
    X, parent = tree_angles(d, n, seed)
    header = ",".join(f"ch{j + 1:02d}" for j in range(d))
    np.savetxt(path, X, delimiter=",", header=header, comments="", fmt="%.17g")
    return tree_edges(parent)


def write_recovery_config(path, d, n, n_reps, seed, alpha, correction):
    """Write a `bench` config: random sparse rotational graph, torus and plv."""
    doc = {
        "schema_version": 1,
        "generator": {"kind": "random", "d": d, "edge_density": 0.25, "coupling_scale": 1.0},
        "n_reps": n_reps,
        "N": n,
        "alpha": alpha,
        "correction": correction,
        "seed": seed,
        "methods": ["torus", "plv"],
        "family": "uniform-phasediff",
        "mode": "rot",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
