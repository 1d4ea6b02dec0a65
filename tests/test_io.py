"""Artifact writers: every CSV exporter against the per-row f-string writer it
replaced, kept here as the reference, byte for byte on small random reports;
the PDE field history, the travelling-wave profile and the perturbative
orders as exact .npy round trips with a pinned header; the one .npy
record writer on every float64 bit pattern; and the forked trajectory
writer's failure paths, each of which leaves no file and no child process."""
import errno
import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pendulon import (IntegrationError, _io, _stencils, continuum, lattice,
                      perturbation, reductions, travelwave)
from pendulon._io import write_npy_record
from pendulon.chain import LatticeState
from pendulon.params import ChainParams, ConfiningPotential

CHAIN = ChainParams(M=1.0, m=0.05, R=0.96, r=0.04, kappa_t=0.015,
                    kappa_s=0.985, g=1.0, delta=1.0,
                    h_spec=ConfiningPotential(family="quadratic", c2=2.0))


def _values(rng, n):
    """Floats over many magnitudes, with exact zeros and negative zeros."""
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    v[rng.random(n) < 0.1] = 0.0
    v[rng.random(n) < 0.1] = -0.0
    return v


def _snapshot_values(rng, n):
    """_values with half its entries drawn from a small pool: three values,
    0.0, -0.0 and NaNs of two payloads, so a snapshot repeats bit patterns
    within and across its columns."""
    v = _values(rng, n)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000001],
                    dtype=np.uint64).view(np.float64)
    pool = np.concatenate([_values(rng, 3), [0.0, -0.0], nans])
    pick = rng.random(n) < 0.5
    v[pick] = rng.choice(pool, int(pick.sum()))
    return v


def _reference_rows(path, schema, header, rows):
    with open(path, "w") as f:
        f.write(f"# schema: {schema}\n")
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(repr(float(x)) for x in row) + "\n")


def _reference_trajectory(snaps, path):
    with open(path, "w") as f:
        f.write("# schema: lattice-trajectory v1\n")
        f.write("t,site,theta,phi,theta_dot,phi_dot\n")
        for s in snaps:
            for i in range(s.n_sites):
                f.write(f"{float(s.t)!r},{i},{float(s.theta[i])!r},"
                        f"{float(s.phi[i])!r},{float(s.theta_dot[i])!r},"
                        f"{float(s.phi_dot[i])!r}\n")


def _reference_lattice_energy(snaps, params, path):
    with open(path, "w") as f:
        f.write("# schema: lattice-energy v2\n")
        f.write("t,E,N\n")
        for s in snaps:
            try:
                q = str(_stencils.winding_number(s.theta))
            except ValueError:
                q = ""
            f.write(f"{float(s.t)!r},"
                    f"{float(lattice.total_energy(s, params))!r},{q}\n")


def _reference_pde_energy(snaps, params, path):
    with open(path, "w") as f:
        f.write("# schema: pde-energy v1\n")
        f.write("t,E,N\n")
        for g in snaps:
            try:
                q = str(continuum.topological_charge(g))
            except ValueError:
                q = ""
            f.write(f"{float(g.t)!r},"
                    f"{float(continuum.energy_total(g, params))!r},{q}\n")


def _reference_stiff(report, path):
    with open(path, "w") as f:
        f.write("# schema: stiff-limit v2\n")
        f.write("h2,v,converged,max_abs_phi,residual\n")
        for c in report.cells:
            f.write(f"{float(c.h2)!r},{float(c.v)!r},{int(c.converged)},"
                    f"{float(c.max_abs_phi)!r},{float(c.residual)!r}\n")


def _same_bytes(tmp_path, write_new, write_old):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_new(new)
    write_old(old)
    assert new.read_bytes() == old.read_bytes()


SEEDS = settings(max_examples=25, deadline=None)


@SEEDS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       snaps=st.integers(1, 4))
def test_lattice_csvs_match_reference(tmp_path_factory, seed, n, snaps):
    rng = np.random.default_rng(seed)
    traj = [LatticeState(*(_snapshot_values(rng, n) for _ in range(4)),
                         t=float(_values(rng, 1)[0]))
            for _ in range(snaps)]
    tmp = tmp_path_factory.mktemp("lat")
    _same_bytes(tmp, lambda p: lattice.export_trajectory_csv(traj, p),
                lambda p: _reference_trajectory(traj, p))
    # energies need physical states: O(1) angles, whole and ragged windings
    states = [LatticeState(*rng.normal(0.0, 4.0, (4, n)),
                           t=float(_values(rng, 1)[0])) for _ in range(snaps)]
    _same_bytes(tmp, lambda p: lattice.export_energy_csv(states, CHAIN, p),
                lambda p: _reference_lattice_energy(states, CHAIN, p))


def _states(k, n, seed=7):
    """k snapshots of n sites; 3000 sites fill more than a 64 KiB pipe."""
    rng = np.random.default_rng(seed)
    return [LatticeState(*(_snapshot_values(rng, n) for _ in range(4)),
                         t=0.5 * j) for j in range(k)]


@pytest.mark.parametrize("k, n", [(0, 5), (3, 5), (3, 3000)])
@pytest.mark.parametrize("exc", [
    IntegrationError("non-finite state after step", 1.5),
    KeyboardInterrupt()])
def test_trajectory_stream_that_raises_leaves_no_file_and_no_child(
        tmp_path, k, n, exc):
    """A stream that stops after k snapshots and raises in the parent: the
    writer re-raises that same exception, removes the partial file and
    leaves no child, whether the child is idle or behind a full pipe."""
    def stream():
        yield from _states(k, n)
        raise exc

    path = tmp_path / "traj.csv"
    with pytest.raises(type(exc)) as info:
        lattice.export_trajectory_csv(stream(), path)
    assert info.value is exc
    assert not path.exists()
    assert multiprocessing.active_children() == []


def test_trajectory_into_missing_directory_is_oserror_naming_path(tmp_path):
    path = tmp_path / "missing" / "traj.csv"
    with pytest.raises(OSError, match=re.escape(str(path))):
        lattice.export_trajectory_csv(_states(2, 5), path)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("k, n", [(2, 5), (40, 3000)])
def test_formatter_failure_is_oserror_naming_path(tmp_path, monkeypatch, k,
                                                  n):
    """The forked child inherits the patched _snapshot_rows and fails on
    its first block. With small snapshots the parent sends all of them and
    learns of it from the exit code; with large ones the pipe breaks."""
    def full(keys, columns):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(_io, "_snapshot_rows", full)
    path = tmp_path / "traj.csv"
    with pytest.raises(OSError, match=re.escape(str(path))):
        lattice.export_trajectory_csv(_states(k, n), path)
    assert not path.exists()
    assert multiprocessing.active_children() == []


def _bits(a):
    """The float64 bit patterns of a, so -0.0 and 0.0 stay distinct."""
    return np.asarray(a, dtype="<f8").view(np.uint64)


def _load_record(path, descr):
    """The 0-d record of a version 1.0 .npy file whose header pins its dtype
    to descr (field names, order and shapes), loaded without pickle."""
    with open(path, "rb") as f:
        assert np.lib.format.read_magic(f) == (1, 0)
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
    assert (shape, fortran) == ((), False)
    assert dtype == np.dtype(descr)
    return np.load(path, allow_pickle=False)


def _assert_same_bits(record, columns):
    for name, column in columns.items():
        assert np.array_equal(_bits(record[name]), _bits(column)), name


# float64 bit patterns a writer could lose: +-0.0, +-inf, quiet and
# signalling NaNs with payloads and sign, the smallest and largest
# subnormals, and the extremes of the normal range
_SPECIAL_BITS = (0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
                 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000001,
                 0x7FF0000000000001, 0x7FF4000000000abc, 0x0000000000000001,
                 0x800FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF)
_FLOAT_BITS = st.one_of(st.sampled_from(_SPECIAL_BITS),
                        st.integers(0, 2**64 - 1))


@SEEDS
@given(data=st.data(), n=st.integers(0, 6), k=st.integers(1, 4),
       kinds=st.lists(st.sampled_from(["array", "rows", "scalars"]),
                      min_size=1, max_size=5))
def test_npy_record_keeps_every_bit_pattern(tmp_path_factory, data, n, k,
                                            kinds):
    """Mixed (n,) arrays, lists of k (n,) rows and lists of k scalars come
    back from np.load bit for bit, in order and shape, and two writes of one
    record are byte-identical."""
    def floats(size):
        bits = data.draw(st.lists(_FLOAT_BITS, min_size=size, max_size=size))
        return np.array(bits, dtype=np.uint64).view(np.float64)

    fields, descr = {}, []
    for i, kind in enumerate(kinds):
        name = f"{kind}{i}"
        if kind == "array":
            fields[name], shape = floats(n), (n,)
        elif kind == "rows":
            fields[name], shape = [floats(n) for _ in range(k)], (k, n)
        else:
            fields[name], shape = floats(k).tolist(), (k,)
        descr.append((name, "<f8", shape))
    tmp = tmp_path_factory.mktemp("record")
    write_npy_record(tmp / "a.npy", fields)
    write_npy_record(tmp / "b.npy", fields)
    assert (tmp / "a.npy").read_bytes() == (tmp / "b.npy").read_bytes()
    record = _load_record(tmp / "a.npy", descr)
    _assert_same_bits(record, {name: np.array(value, dtype=np.float64)
                               for name, value in fields.items()})


@SEEDS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 12),
       snaps=st.integers(1, 4))
def test_pde_fields_npy_round_trips_every_bit(tmp_path_factory, seed, n,
                                              snaps):
    rng = np.random.default_rng(seed)
    x = np.linspace(-1.0, 1.0, n) * 10.0 ** rng.integers(-5, 5)
    grids = [continuum.FieldGrid(x, *(_values(rng, n) for _ in range(4)),
                                 t=float(_values(rng, 1)[0]))
             for _ in range(snaps)]
    path = tmp_path_factory.mktemp("pde") / "fields.npy"
    continuum.export_fields(grids, path)
    record = _load_record(path, [("t", "<f8", (snaps,)), ("x", "<f8", (n,))]
                          + [(name, "<f8", (snaps, n)) for name in
                             ("Theta", "Phi", "Theta_t", "Phi_t")])
    assert np.array_equal(_bits(record["t"]), _bits([g.t for g in grids]))
    assert np.array_equal(_bits(record["x"]), _bits(x))
    for name in ("Theta", "Phi", "Theta_t", "Phi_t"):
        for j, g in enumerate(grids):
            assert np.array_equal(_bits(record[name][j]),
                                  _bits(getattr(g, name)))


def test_pde_fields_need_one_grid(tmp_path):
    x = np.linspace(0.0, 1.0, 6)
    a = continuum.FieldGrid(x, *np.zeros((4, 6)))
    b = continuum.FieldGrid(2 * x, *np.zeros((4, 6)))
    continuum.export_fields([a, a], tmp_path / "same.npy")
    with pytest.raises(ValueError, match="one grid"):
        continuum.export_fields([a, b], tmp_path / "two.npy")


def test_pde_energy_csv_matches_reference_with_blank_charge(tmp_path):
    x = np.linspace(0.0, 30.0, 61)
    kink = continuum.kink_field_grid(CHAIN, 1.0, 0.3, x)
    ragged = continuum.FieldGrid(x, np.linspace(0, np.pi, 61), kink.Phi,
                                 kink.Theta_t, kink.Phi_t, 0.25)
    snaps = [kink, ragged]
    _same_bytes(tmp_path, lambda p: continuum.export_energy_csv(snaps, CHAIN, p),
                lambda p: _reference_pde_energy(snaps, CHAIN, p))
    assert (tmp_path / "new.csv").read_text().splitlines()[-1].endswith(",")


@pytest.mark.parametrize("n", [6, 41])
def test_tw_profile_npy_round_trips_every_bit(tmp_path, n):
    z = np.linspace(-8.0, 8.0, n)
    prof = travelwave.kink_profile(z, 1.05, 0.305)
    res1, res2 = travelwave.tw_residual(prof, CHAIN)
    E = travelwave.tw_first_integral(prof, CHAIN)
    path = tmp_path / "tw-profile.npy"
    returned = travelwave.export_profile(prof, CHAIN, path)
    columns = {"z": prof.z, "theta": prof.theta, "phi": prof.phi,
               "theta_z": prof.theta_z, "phi_z": prof.phi_z,
               "res1": res1, "res2": res2, "E_tw": E}
    record = _load_record(path, [(name, "<f8", (n,)) for name in columns])
    _assert_same_bits(record, columns)
    _assert_same_bits(columns, dict(zip(("res1", "res2", "E_tw"), returned)))


@SEEDS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 8))
def test_small_csvs_match_reference(tmp_path_factory, seed, n):
    rng = np.random.default_rng(seed)
    tmp = tmp_path_factory.mktemp("small")
    study = perturbation.ScalingStudy(*(_values(rng, n) for _ in range(3)),
                                      0.0, 0.0)
    _same_bytes(tmp, lambda p: perturbation.export_scaling_csv(study, p),
                lambda p: _reference_rows(
                    p, "residual-scaling v1", "eps,res_eq1_L2,res_eq2_L2",
                    zip(study.eps, study.res1_l2, study.res2_l2)))
    # integer stiffnesses must still print as floats
    cells = tuple(reductions.StiffCell(int(h2), *_values(rng, 1).tolist(),
                                       bool(ok), *_values(rng, 2).tolist())
                  for h2, ok in zip(rng.integers(1, 10**6, n),
                                    rng.integers(0, 2, n)))
    report = reductions.StiffReport(v_star=2.0, cells=cells)
    _same_bytes(tmp, lambda p: reductions.export_stiff_csv(report, p),
                lambda p: _reference_stiff(report, p))


@SEEDS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 8))
def test_perturbative_orders_npy_round_trips_every_bit(tmp_path_factory,
                                                       seed, n):
    rng = np.random.default_rng(seed)
    columns = {name: _snapshot_values(rng, n)
               for name in ("z", "theta0", "theta1", "phi1", "phi2")}
    none = (None,) * 4
    sol = perturbation.Expansion(
        z=columns["z"], params=None, orders=(
            perturbation.Order(columns["theta0"], None, *none),
            perturbation.Order(columns["theta1"], columns["phi1"], *none),
            perturbation.Order(None, columns["phi2"], *none)))
    path = tmp_path_factory.mktemp("orders") / "perturbative-orders.npy"
    perturbation.export_orders(sol, path)
    record = _load_record(path, [(name, "<f8", (n,)) for name in columns])
    _assert_same_bits(record, columns)
