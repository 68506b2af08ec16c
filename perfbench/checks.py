"""Output checks, one per CLI command; each returns a list of problems.

Every check takes the command's stdout first; an empty list means the
output is correct. The checks read the files and stdout a user would see,
and know the file formats from FORMATS.md rather than from the package, so
a bug in the package cannot hide itself. Checks on data drawn by the
package's own sampler are statistical, so they survive a change of sampler
stream.
"""

import json
import math
import re

_RESIDUAL = re.compile(r"^residual=(\S+)$", re.MULTILINE)
_CV_ROW = re.compile(r"^\s+lambda=(\S+)\s+heldout=(\S+)( \*)?$", re.MULTILINE)


def fit_residual(stdout, max_residual):
    """The estimating-equation residual that `fit` prints is at most max_residual."""
    found = _RESIDUAL.findall(stdout)
    if len(found) != 1:
        return [f"expected one residual line, found {len(found)}"]
    try:
        value = float(found[0])
    except ValueError:
        return [f"unparsable residual {found[0]!r}"]
    if not value <= max_residual:
        return [f"residual {value:g} > {max_residual:g}"]
    return []


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def graph_equals(stdout, graph_path, truth_edges):
    """The significant edges of a graph JSON are exactly the truth edges."""
    doc = _read_json(graph_path)
    got = sorted((min(e["j"], e["k"]), max(e["j"], e["k"])) for e in doc["edges"] if e["significant"])
    want = sorted(tuple(e) for e in truth_edges)
    if got == want:
        return []
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    return [f"graph differs from the truth: missing {missing[:5]}, extra {extra[:5]}"]


def _coupling_start(d, j, k):
    # model JSON layout (FORMATS.md): d marginal pairs, then one block of 4
    # per pair (j, k), j < k, in lexicographic order
    rank = j * d - j * (j + 1) // 2 + (k - j - 1)
    return 2 * d + 4 * rank


def cv_choice(stdout, grid, model_path, truth_edges):
    """The CV table covers the grid, the starred lambda minimises the printed
    held-out loss, and every truth edge has a nonzero coupling block."""
    rows = _CV_ROW.findall(stdout)
    if len(rows) != len(grid):
        return [f"expected {len(grid)} CV rows, found {len(rows)}"]
    problems = []
    lams = [float(lam) for lam, _, _ in rows]
    losses = [float(loss) for _, loss, _ in rows]
    for printed, value in zip(lams, grid):
        if not math.isclose(printed, value, rel_tol=1e-5):
            problems.append(f"CV row lambda {printed:g} is not grid value {value:g}")
    starred = [i for i, (_, _, star) in enumerate(rows) if star]
    if len(starred) != 1:
        return problems + [f"expected one chosen lambda, found {len(starred)}"]
    if losses[starred[0]] > min(losses):
        problems.append(f"chosen lambda {lams[starred[0]]:g} does not minimise the held-out loss")
    doc = _read_json(model_path)
    d, phi = doc["d"], doc["phi"]
    dropped = []
    for j, k in truth_edges:
        start = _coupling_start(d, min(j, k), max(j, k))
        if not any(phi[start : start + 4]):
            dropped.append((j, k))
    if dropped:
        problems.append(f"truth edges outside the fitted support: {dropped[:5]}")
    return problems


def fpr_mcse(fpr_reps):
    """Monte-Carlo standard error of the mean per-replicate FPR."""
    vals = [v for v in fpr_reps if math.isfinite(v)]
    if len(vals) < 2:
        return 0.0
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return math.sqrt(var / len(vals))


def recovery(stdout, summary_path, fpr_reps, alpha, min_auc):
    """Torus-method AUC is at least min_auc and its FPR at most alpha + 2 MCSE."""
    doc = _read_json(summary_path)
    torus = doc["methods"].get("torus")
    if torus is None or "plv" not in doc["methods"]:
        return ["summary lacks the torus or plv method"]
    problems = []
    auc, fpr = torus["auc"], torus["fpr_at_alpha"]
    if auc is None or not auc >= min_auc:
        problems.append(f"torus AUC {auc} < {min_auc}")
    bound = alpha + 2.0 * fpr_mcse(fpr_reps)
    if fpr is None or not fpr <= bound:
        problems.append(f"torus FPR {fpr} > {bound:.4g}")
    return problems
