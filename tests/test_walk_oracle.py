"""The moments' walk and the closed-form residual rows against the passes
they replace.

``asymptotic_cov`` below is the package's former routine, kept verbatim as the
oracle except that the covariance record carries the moments it was solved
with and the second pass is named ``walk_residual_rows``. With the former
walk (``derivative_oracle.accumulate_moments``) it reads the data twice, once
for the Gram blocks and once for the sandwich residual rows, and computes the
statistics and the derivative rows on both passes. The package makes neither:
its moments come from the products of (1, cos x, sin x) in one walk
(``estimation.accumulate_moments``) and its residual rows in closed form from
the model score (``estimation._residual_rows``). It also factors Gamma by
node-bisection blocks (``sandwich_oracle`` keeps the dense factor), so its
factor's columns come in another order. The moments, the residual rows and
each active coordinate's factor column, found through each record's position
map, must agree with the oracle's to 1e-12 abs, both maps must mask the same
coordinates, and the CLI `test` and `region-test` must walk each data row
once.
"""

import json
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgraphs import estimation, inference
from torusgraphs.cli import main
from torusgraphs.estimation import fit_closed_form
from torusgraphs.exceptions import DomainError
from torusgraphs.inference import SandwichCov
from torusgraphs.io import save_model, save_samples_csv
from torusgraphs.model import (
    Family,
    TorusGraphParams,
    _canonical_pairs,
    _node_coords,
    coupling_coords,
    edge_list,
    family_mask,
    param_dim,
)
from torusgraphs.sampling import GibbsConfig, gibbs_sample
from torusgraphs.simulation import gen_chain

from derivative_oracle import (
    _derivative_table,
    _h_rows,
    _stat_chunks,
    accumulate_moments,
    gamma_block,
)
from sandwich_oracle import _checked_cholesky


def asymptotic_cov(data, params, moments=None):
    """Sandwich covariance of sqrt(N)(phi_hat - phi) on the family's active set.

    With residual rows r_n = Gamma(x_n) phi - H(x_n) on the active
    coordinates, V_hat = R'R / N and Sigma = Gamma_hat^-1 V_hat Gamma_hat^-1
    = F'F for the factor F = R Gamma_hat^-1 / sqrt(N), which is all that is
    formed: the active Gamma block is assembled from the moments' node blocks
    (``derivative_oracle.gamma_block``) and factored in place, and the
    solve against R is written into R, so those two are the only large
    arrays. Tests read small blocks of Sigma through
    :meth:`SandwichCov.block`. ``params`` may be the fitted or a null
    coefficient vector. Raises SingularMomentsError under the same Cholesky
    and condition guard as the closed-form fit.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    if d != params.d:
        raise DomainError(f"data dimension {d} does not match model dimension {params.d}")
    if moments is None:
        moments = accumulate_moments(X)
    m = param_dim(d)
    idx = np.nonzero(params.active)[0]
    cho = _checked_cholesky(gamma_block(moments, idx), moments.n, m)
    R = walk_residual_rows(X, params.phi, idx)
    # R' is Fortran-ordered, so the solve overwrites R with R Gamma^-1
    scipy.linalg.cho_solve(cho, R.T, overwrite_b=True, check_finite=False)
    R *= 1.0 / np.sqrt(n)
    R.flags.writeable = False
    position = -np.ones(m, dtype=int)
    position[idx] = np.arange(idx.size)
    return SandwichCov(factor=R, position=position, moments=moments)


def walk_residual_rows(X, phi, idx):
    """The residual rows Gamma(x) phi - H(x) of the (N, d) angles X on the
    columns ``idx``, each node's derivative rows A_l scattered in by
    A_l (A_l phi[coords_l])."""
    n, d = X.shape
    table = _derivative_table(d)
    R = np.empty((n, idx.size))
    start = 0
    for S in _stat_chunks(X):
        r = -_h_rows(S, d)
        for coords, src, sign in zip(*table):
            A = S[:, src] * sign
            r[:, coords] += A * (A @ phi[coords])[:, None]
        # the indices are in range; mode="raise" would write through a buffer
        np.take(r, idx, axis=1, out=R[start : start + r.shape[0]], mode="clip")
        start += r.shape[0]
    return R


def coupled_sample(d, n, seed):
    """n Gibbs draws from a model with O(1) marginal and coupling blocks."""
    rng = np.random.default_rng(seed)
    params = TorusGraphParams(d=d, phi=rng.normal(scale=0.5, size=param_dim(d)))
    return gibbs_sample(params, GibbsConfig(n_samples=n, burn_in=100, seed=seed))


def assert_moments_equal(a, b):
    assert a.n == b.n
    np.testing.assert_allclose(a.blocks, b.blocks, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.h_hat, b.h_hat, rtol=0, atol=1e-12)


def assert_cov_equal(X, fit, given_moments):
    """The package and the two-pass oracle agree but for rounding, with the
    fit's moments passed in or accumulated on the way."""
    moments = fit.moments if given_moments else None
    cov = inference.asymptotic_cov(X, fit.params, moments=moments)
    ref = asymptotic_cov(X, fit.params, moments=moments)
    assert np.array_equal(cov.position >= 0, ref.position >= 0)
    active = np.nonzero(ref.position >= 0)[0]
    np.testing.assert_allclose(cov.factor[:, cov.position[active]],
                               ref.factor[:, ref.position[active]], rtol=0, atol=1e-12)
    assert_moments_equal(cov.moments, ref.moments)
    assert_moments_equal(cov.moments, fit.moments)
    if given_moments:
        assert cov.moments is fit.moments
    assert not cov.factor.flags.writeable


@pytest.mark.parametrize("given_moments", [False, True], ids=["walk-moments", "given-moments"])
@pytest.mark.parametrize(
    "d, family, zeroed",
    [(d, f, z) for d in (1, 3, 8) for f in Family for z in ((False, True) if d > 1 else (False,))],
)
def test_cov_matches_two_pass(d, family, zeroed, given_moments):
    X = coupled_sample(d, max(300, 5 * param_dim(d)), seed=500 + d)
    fit = fit_closed_form(X, family=family, zero_edges=[(0, d - 1)] if zeroed else None)
    assert_moments_equal(estimation.accumulate_moments(X), accumulate_moments(X))
    assert_cov_equal(X, fit, given_moments)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_cov_matches_two_pass_property(data):
    d = data.draw(st.integers(1, 6), label="d")
    n = data.draw(st.integers(5 * param_dim(d), 600), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    edges = edge_list(d)
    zero_edges = []
    if edges:
        zero_edges = data.draw(st.lists(st.sampled_from(edges), unique=True), label="zero_edges")
    given_moments = data.draw(st.booleans(), label="given_moments")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    X = coupled_sample(d, n, seed)
    fit = fit_closed_form(X, family=family, zero_edges=zero_edges or None)
    assert_cov_equal(X, fit, given_moments)


def test_oracle_coordinates_match_package():
    for d in range(1, 9):
        assert np.array_equal(_derivative_table(d)[0], _node_coords(d))


def walk_chunks(X, monkeypatch):
    """The package's moments of X and the row count of each chunk its walk
    made."""
    sizes = []
    inner = estimation._chunk_products

    def recorded(x, *args):
        sizes.append(len(x))
        return inner(x, *args)

    with monkeypatch.context() as m:
        m.setattr(estimation, "_chunk_products", recorded)
        return estimation.accumulate_moments(X), sizes


@pytest.mark.parametrize("d", [1, 2, 3, 6, 8, 10, 12, 13, 24, 48])
def test_walk_chunks_within_statistics_chunk(d, monkeypatch):
    # each chunk's products, (2d + 1)(d + 1) per row, fit in the 256 rows of
    # 2d^2 statistics that the oracle's chunk holds. A chunk is the largest
    # that does, or else the largest whose matrix product, 2d + 1 times that
    # per row, has under 2^19 multiply-adds (one OpenBLAS thread), if that is
    # 64 rows or more
    X = np.random.default_rng(540 + d).uniform(0.0, 2 * np.pi, size=(600, d))
    sizes = walk_chunks(X, monkeypatch)[1]
    rows, per_row = sizes[0], (2 * d + 1) * (d + 1)
    assert sum(sizes) == 600 and all(size == rows for size in sizes[:-1])
    assert rows * per_row <= 256 * param_dim(d)
    if (rows + 1) * per_row <= 256 * param_dim(d):
        product = (2 * d + 1) * per_row
        assert 64 <= rows and rows * product < 2**19 <= (rows + 1) * product


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 10])
def test_walk_matches_oracle_at_chunk_edges(d, monkeypatch):
    rng = np.random.default_rng(550 + d)
    rows = walk_chunks(rng.uniform(0.0, 2 * np.pi, size=(600, d)), monkeypatch)[1][0]
    for n in sorted({1, rows - 1, rows, rows + 1, 2 * rows + 1, 255, 256, 257}):
        X = rng.uniform(0.0, 2 * np.pi, size=(n, d))
        moments, sizes = walk_chunks(X, monkeypatch)
        assert len(sizes) == -(-n // rows)
        assert_moments_equal(moments, accumulate_moments(X))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_walk_matches_oracle_property(data):
    d = data.draw(st.integers(1, 6), label="d")
    n = data.draw(st.one_of(st.integers(1, 600), st.sampled_from([255, 256, 257])), label="n")
    # angles as a CSV may give them: in [0, 2pi), in [-pi, pi) or unreduced
    scale = data.draw(st.sampled_from([np.pi, 2 * np.pi, 50.0]), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = rng.uniform(-scale, scale, size=(n, d))
    assert_moments_equal(estimation.accumulate_moments(X), accumulate_moments(X))


def test_walk_keeps_its_arrays(monkeypatch):
    # the moments hold the arrays the walk assembles, read-only, not copies;
    # an array a caller passes in is kept and locked the same way
    made = {}
    for name in ("_node_blocks", "_h_from"):
        inner = getattr(estimation, name)
        monkeypatch.setattr(estimation, name,
                            lambda *args, _n=name, _f=inner: made.setdefault(_n, _f(*args)))
    X = np.random.default_rng(565).uniform(0.0, 2 * np.pi, size=(300, 5))
    moments = estimation.accumulate_moments(X)
    assert np.shares_memory(moments.blocks, made["_node_blocks"])
    assert np.shares_memory(moments.h_hat, made["_h_from"])
    assert not moments.blocks.flags.writeable and not moments.h_hat.flags.writeable
    blocks, h = np.array(moments.blocks), np.array(moments.h_hat)
    kept = estimation.ScoreMatchingMoments(blocks=blocks, h_hat=h, n=300)
    assert kept.blocks is blocks and kept.h_hat is h
    assert not blocks.flags.writeable and not h.flags.writeable


def test_walk_matches_oracle_d48():
    # 300 rows cross the package's and the oracle's chunk boundaries
    X = np.random.default_rng(560).uniform(0.0, 2 * np.pi, size=(300, 48))
    assert_moments_equal(estimation.accumulate_moments(X), accumulate_moments(X))


def random_params(d, family, zero_edges, rng):
    """Coefficients of scale 1/sqrt(d) on the family's active coordinates,
    with the blocks of ``zero_edges`` held at zero."""
    phi = rng.normal(scale=1.0 / np.sqrt(d), size=param_dim(d))
    phi[~family_mask(d, family)] = 0.0
    phi[coupling_coords(d)[_canonical_pairs(d, zero_edges)[1]]] = 0.0
    return TorusGraphParams(d=d, phi=phi, family=family)


def assert_rows_match_walk(X, params):
    idx = np.nonzero(params.active)[0]
    rows = estimation._residual_rows(X, params, idx)
    assert rows.shape == (X.shape[0], idx.size)
    np.testing.assert_allclose(rows, walk_residual_rows(X, params.phi, idx), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_residual_rows_match_walk_property(data):
    d = data.draw(st.integers(1, 6), label="d")
    n = data.draw(st.integers(1, 600), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    edges = edge_list(d)
    zero_edges = []
    if edges:
        zero_edges = data.draw(st.lists(st.sampled_from(edges), unique=True), label="zero_edges")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = rng.uniform(0.0, 2 * np.pi, size=(n, d))
    assert_rows_match_walk(X, random_params(d, family, zero_edges, rng))


@pytest.mark.parametrize("family", list(Family))
def test_residual_rows_match_walk_d48(family):
    # 300 rows cross the package's and the oracle's chunk boundaries
    rng = np.random.default_rng(530)
    X = rng.uniform(0.0, 2 * np.pi, size=(300, 48))
    assert_rows_match_walk(X, random_params(48, family, [(0, 47), (5, 9)], rng))


def test_empty_data_rejected():
    params = TorusGraphParams(d=2, phi=np.zeros(8))
    moments = estimation.accumulate_moments(coupled_sample(2, 50, seed=510))
    for given in (None, moments):
        with pytest.raises(DomainError):
            inference.asymptotic_cov(np.zeros((0, 2)), params, moments=given)


def _count_walks(monkeypatch):
    """Record the row count of every call of accumulate_moments in the
    package, wherever the name is bound."""
    rows = []
    inner = estimation.accumulate_moments

    def counted(data):
        rows.append(len(data))
        return inner(data)

    for name, module in list(sys.modules.items()):
        if name == "torusgraphs" or name.startswith("torusgraphs."):
            if hasattr(module, "accumulate_moments"):
                monkeypatch.setattr(module, "accumulate_moments", counted)
    return rows


@pytest.mark.parametrize("n", [255, 600])
@pytest.mark.parametrize("command", ["test", "region-test"])
def test_cli_reads_statistics_once(tmp_path, monkeypatch, command, n):
    X, _ = gen_chain(N=n, d=4, xi=np.pi / 100, kappa1=0.01, kappa_eps=40.0, seed=520)
    data, model, groups = tmp_path / "x.csv", tmp_path / "m.json", tmp_path / "groups.json"
    save_samples_csv(data, X)
    save_model(model, fit_closed_form(X).params)
    groups.write_text(json.dumps({"schema_version": 1, "groups": {"a": [0, 1], "b": [2, 3]}}))
    walks = _count_walks(monkeypatch)
    argv = [command, str(data), "--model", str(model)]
    if command == "region-test":
        argv += ["--groups", str(groups)]
    else:
        argv += ["--out", str(tmp_path / "g.json")]
    assert main(argv) == 0
    assert walks == [n]


def test_region_test_checks_groups_before_the_walk(tmp_path, monkeypatch, capsys):
    X, _ = gen_chain(N=300, d=4, xi=np.pi / 100, kappa1=0.01, kappa_eps=40.0, seed=521)
    data, model, groups = tmp_path / "x.csv", tmp_path / "m.json", tmp_path / "groups.json"
    save_samples_csv(data, X)
    save_model(model, fit_closed_form(X).params)
    groups.write_text(json.dumps({"schema_version": 1, "groups": {"a": [0], "b": [7]}}))
    walks = _count_walks(monkeypatch)
    assert main(["region-test", str(data), "--model", str(model), "--groups", str(groups)]) == 2
    assert "lists channel 7" in capsys.readouterr().err
    assert walks == []
