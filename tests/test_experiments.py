"""Protocols, sweeps, and phase diagrams."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rotdicke import (
    ModelParams,
    NONZERO_THRESHOLD,
    ProtocolSpec,
    coherent_state,
    evolve,
    initial_state_params,
    integrate,
    phase_diagram,
    point_from_coherent,
    rotated_critical_coupling,
    run_protocol,
    spectrum,
    stationary_photon_scaled,
    sweep_lambda,
    sweep_velocity,
)
from rotdicke.experiments import ENGINES, SweepResult


def mf_spec(**kwargs):
    defaults = dict(
        params=ModelParams(lam=1.0, j=1.0, delta_phi=1.0),
        engine="meanfield",
        initial="stationary_circle",
        driven=True,
        n_revolutions=1,
        sample_count=300,
        observables=("mean_photon_scaled",),
        rtol=1e-10,
    )
    defaults.update(kwargs)
    return ProtocolSpec(**defaults)


class TestProtocolSpecValidation:
    def test_requires_positive_delta_phi(self):
        with pytest.raises(ValueError, match="delta_phi"):
            mf_spec(params=ModelParams(lam=1.0, j=1.0, delta_phi=0.0))

    def test_rejects_nan_rtol(self):
        with pytest.raises(ValueError, match="rtol"):
            mf_spec(rtol=math.nan)

    def test_rejects_infinite_rtol(self):
        with pytest.raises(ValueError, match="rtol"):
            mf_spec(rtol=math.inf)

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_epsilon(self, epsilon):
        for initial in ("nearly_fock", "stationary_circle"):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                mf_spec(initial=initial, epsilon=epsilon)

    @pytest.mark.parametrize("label", ["alpha", "zeta"])
    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), math.nan])
    def test_rejects_non_finite_labels(self, label, bad):
        # A NaN alpha once ran a quantum trajectory to NaN observables with
        # only a RuntimeWarning.  The spec stops it for both engines, before
        # any run starts: the mean-field flow takes the label unchecked.
        for engine in ENGINES:
            with pytest.raises(ValueError, match=f"{label} must be finite"):
                mf_spec(engine=engine, initial="explicit", **{label: bad})

    @pytest.mark.parametrize("name", ["sample_count", "n_revolutions"])
    @pytest.mark.parametrize("bad", [10.5, 3.0, True, "300", np.float64(3.0)])
    def test_rejects_non_integer_counts(self, name, bad):
        # A float sample_count once built, then aborted sweep_lambda with a
        # TypeError from np.linspace that _run_cell does not catch.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sweep_lambda(mf_spec(**{name: bad}), [0.5, 1.0])
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            replace(mf_spec(), **{name: bad})

    def test_accepts_numpy_integer_counts(self):
        spec = mf_spec(sample_count=np.int64(50), n_revolutions=np.int32(2))
        result = sweep_lambda(spec, [0.5, 1.0])
        assert [cell.error for cell in result.cells] == [None, None]
        assert result.cells == sweep_lambda(mf_spec(sample_count=50, n_revolutions=2), [0.5, 1.0]).cells

    def test_rejects_unknown_engine_and_initial(self):
        with pytest.raises(ValueError, match="engine"):
            mf_spec(engine="exact")
        with pytest.raises(ValueError, match="initial"):
            mf_spec(initial="thermal")

    def test_nearly_fock_needs_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            mf_spec(initial="nearly_fock")

    def test_ground_state_is_quantum_only(self):
        with pytest.raises(ValueError, match="quantum"):
            mf_spec(initial="ground_state")

    def test_scaled_parity_is_meanfield_only(self):
        with pytest.raises(ValueError, match="scaled_parity"):
            mf_spec(engine="quantum", observables=("scaled_parity",))

    def test_rejects_repeated_observables(self):
        # A sweep derives every cell from its spec, so the spec is where a
        # repeated name must stop, before any cell writes a column twice.
        with pytest.raises(ValueError, match=r"repeated observables: \['parity'\]"):
            mf_spec(observables=("parity", "mean_photon_scaled", "parity"))
        spec = mf_spec(observables=("parity",))
        with pytest.raises(ValueError, match="repeated observables"):
            replace(spec, observables=("parity", "parity"))
        with pytest.raises(ValueError, match="repeated observables"):
            mf_spec(engine="quantum", initial="fock", observables=("parity", "parity"))

    def test_t_final(self):
        spec = mf_spec(n_revolutions=3)
        assert spec.t_final == pytest.approx(3 * 2 * math.pi / 1.0)


class TestRunProtocol:
    def test_driven_circle_constant_photon_number(self):
        traj = run_protocol(mf_spec())
        col = traj.data["mean_photon_scaled"]
        closed = stationary_photon_scaled(1.0, 1.0, 1.0, 1.0)
        assert np.max(np.abs(col - closed)) < 1e-6
        assert traj.engine == "meanfield" and traj.driven

    def test_meanfield_fock_is_identically_zero(self):
        for driven in (True, False):
            traj = run_protocol(mf_spec(initial="fock", driven=driven))
            assert np.max(np.abs(traj.data["mean_photon_scaled"])) < 1e-15

    def test_quantum_fock_parity_stays_plus_one(self):
        spec = mf_spec(
            engine="quantum",
            initial="fock",
            params=ModelParams(lam=1.0, j=1.0, delta_phi=1.0, n_max=40),
            sample_count=60,
            observables=("mean_photon_scaled", "parity"),
        )
        traj = run_protocol(spec)
        assert np.max(np.abs(traj.data["parity"] - 1.0)) < 1e-10
        # the driven Fock state does excite photons at finite j
        assert traj.data["mean_photon_scaled"][-1] > 1e-3

    def test_explicit_initial_state(self):
        spec = mf_spec(initial="explicit", alpha=0.4 + 0.1j, zeta=-0.2 + 0.05j)
        traj = run_protocol(spec)
        # first sample reproduces the requested labels
        photon0 = traj.data["mean_photon_scaled"][0]
        assert photon0 == pytest.approx(abs(0.4 + 0.1j) ** 2 / 1.0, rel=1e-10)

    def test_undriven_comparison_shares_time_grid(self):
        driven = run_protocol(mf_spec())
        undriven = run_protocol(mf_spec(driven=False))
        assert np.array_equal(driven.times, undriven.times)
        assert not undriven.driven

    @pytest.mark.parametrize("engine", ENGINES)
    def test_undriven_run_is_the_engine_run_at_zero_velocity(self, engine):
        # The engines know no undriven flag: run_protocol evolves the driven
        # run's start over its t_f at delta_phi = 0, where an engine records
        # driven False, and puts the spec's delta_phi back.
        params = ModelParams(lam=1.2, j=1.5, delta_phi=1.4, n_max=30)
        spec = mf_spec(engine=engine, params=params, driven=False, sample_count=30)
        alpha, zeta = initial_state_params(spec.initial, params)
        still = replace(params, delta_phi=0.0)
        if engine == "meanfield":
            start = point_from_coherent(alpha, zeta, params.j)
            alone = integrate(start, still, spec.t_final, 30, tol=spec.rtol, observables=spec.observables)
        else:
            start = coherent_state(alpha, zeta, params.j, 30)
            alone = evolve(start, still, spec.t_final, 30, observables=spec.observables)
        assert not alone.driven
        assert run_protocol(spec) == replace(alone, params=params)

    def test_scaled_parity_column(self):
        spec = mf_spec(
            initial="stationary_dicke",
            params=ModelParams(lam=0.8, j=2.0, delta_phi=1.0),
            observables=("mean_photon_scaled", "parity", "scaled_parity"),
        )
        traj = run_protocol(spec)
        assert set(traj.observables) == {"mean_photon_scaled", "parity", "scaled_parity"}
        assert traj.data["scaled_parity"][0] <= 1.0

    def test_quantum_adaptive_n_max_floor(self):
        spec = mf_spec(
            engine="quantum",
            initial="fock",
            params=ModelParams(lam=0.4, j=0.5, delta_phi=1.0),
            sample_count=30,
            observables=("parity",),
        )
        traj = run_protocol(spec)  # resolves n_max adaptively, floor 100
        assert traj.params.n_max == 100

    def test_quantum_adaptive_n_max_ground_state(self):
        from rotdicke.experiments import resolve_n_max

        spec = mf_spec(
            engine="quantum",
            initial="ground_state",
            params=ModelParams(lam=0.6, j=1.0, delta_phi=1.0),
            sample_count=30,
            observables=("parity",),
        )
        assert resolve_n_max(spec) == 100  # weak coupling sits well below the floor

    def test_adaptive_ground_state_run_solves_once(self, monkeypatch):
        from rotdicke import quantum

        solve = quantum.ground_state
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(quantum, "ground_state", counting)
        spec = mf_spec(
            engine="quantum",
            initial="ground_state",
            params=ModelParams(lam=1.3, j=2.0, delta_phi=1.0),
            sample_count=30,
            observables=("mean_photon_scaled", "parity"),
        )
        traj = run_protocol(spec)
        assert len(calls) == 1  # resolve_n_max's solve is the run's initial state
        # The same run with n_max given solves its own ground state.
        fixed = run_protocol(replace(spec, params=replace(spec.params, n_max=traj.params.n_max)))
        assert len(calls) == 2
        assert traj == fixed

    @pytest.mark.parametrize(
        "initial, j, lam, n_max",
        [
            ("stationary_dicke", 20.0, 2.0, 338),
            ("ground_state", 20.0, 1.3, 150),
            ("stationary_circle", 12.0, 1.5, 150),
            ("fock", 6.0, 1.3, 100),
            ("ground_state", 6.0, 1.3, 100),
        ],
    )
    def test_adaptive_n_max_choices(self, initial, j, lam, n_max):
        # Pinned when the coherent and ground-state loops became one; the
        # loop must keep choosing these, or golden and benchmark outputs move.
        from rotdicke.experiments import resolve_n_max

        spec = mf_spec(
            engine="quantum",
            initial=initial,
            params=ModelParams(lam=lam, j=j, delta_phi=1.0),
            observables=("parity",),
        )
        assert resolve_n_max(spec) == n_max

    def test_adaptive_coherent_run_builds_its_start_once(self, monkeypatch):
        from rotdicke import quantum

        build = quantum._coherent_start
        sizes = []

        def counting(alpha, zeta, j, n_max):
            sizes.append(n_max)
            return build(alpha, zeta, j, n_max)

        monkeypatch.setattr(quantum, "_coherent_start", counting)
        spec = mf_spec(
            engine="quantum",
            initial="stationary_circle",
            params=ModelParams(lam=1.5, j=12.0, delta_phi=1.0),
            sample_count=3,
            observables=("mean_photon_scaled", "parity"),
        )
        traj = run_protocol(spec)
        # One build per n_max tried; the one that fits is the run's start.
        assert sizes == [100, 150]
        # The same run with n_max given builds its start once, checked.
        fixed = run_protocol(replace(spec, params=replace(spec.params, n_max=150)))
        assert sizes == [100, 150, 150]
        assert traj == fixed

    def test_fixed_n_max_coherent_start_keeps_the_truncation_error(self, tmp_path, capsys):
        from rotdicke.cli import main

        message = "truncation loss 1.000e+00 >= 1.0e-10 at n_max=100; increase n_max (|alpha|^2 = 159)"
        spec = mf_spec(
            engine="quantum",
            initial="stationary_dicke",
            params=ModelParams(lam=2.0, j=20.0, delta_phi=1.0, n_max=100),
            observables=("parity",),
        )
        with pytest.raises(ValueError) as excinfo:
            run_protocol(spec)
        assert str(excinfo.value) == message
        out = tmp_path / "x.csv"
        argv = ["trajectory", "--engine", "quantum", "--initial", "stationary_dicke", "--j", "20"]
        assert main([*argv, "--lambda", "2", "--n-max", "100", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "engine, initial, code, err",
        [
            ("quantum", "ground_state", 2,
             "error: basis dimension (n_max+1)(2j+1) = 296463 exceeds the cap 200000 (set by --omega = 1e-200)\n"),
            ("meanfield", "stationary_dicke", 0, ""),
        ],
        ids=["quantum", "meanfield"],
    )
    def test_underflowing_stationary_labels_through_main(self, tmp_path, capsys, engine, initial, code, err):
        # The stationary-Dicke labels at these frequencies once raised
        # "float division by zero"; an open ground state meets them in the
        # ladder that refuses it, and a mean-field run starts from them.
        from rotdicke.cli import main

        out = tmp_path / "x.csv"
        argv = ["trajectory", "--engine", engine, "--initial", initial, "--j", "1", "--lambda", "1e-170"]
        argv += ["--omega", "1e-200", "--omega0", "1e-200", "--sample-count", "3", "--out", str(out)]
        assert main(argv) == code
        assert capsys.readouterr().err == err
        assert out.exists() == (code == 0)

    def test_adaptive_n_max_stops_at_the_dimension_cap(self):
        # |alpha|^2 = 160000 needs n_max ~ 162000, dim 2.1e6 at j=6: growth must
        # stop at the cap rather than build ever larger coherent states.
        spec = mf_spec(
            engine="quantum",
            initial="explicit",
            alpha=400,
            params=ModelParams(lam=1.0, j=6.0, delta_phi=1.0),
            observables=("parity",),
        )
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the cap"):
                run_protocol(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize(
        "omega, message",
        [
            (1e-200, "|alpha|^2 overflows the float range at alpha = 1.41421e+200 (set by omega = 1e-200)"),
            (1e-3, "basis dimension (n_max+1)(2j+1) = 296463 exceeds the cap 200000"),
        ],
        ids=["overflow", "cap"],
    )
    def test_open_ground_state_that_cannot_fit_fails_before_lanczos(self, monkeypatch, omega, message):
        # <a^dag a> ~ (lam/omega)^2 never fits.  Such a run once grew n_max
        # to the dimension cap with a Lanczos run at every size (~20 s);
        # the stationary-Dicke start's ladder refuses it with no eigensolve.
        from rotdicke import quantum

        def no_lanczos(*args):
            raise AssertionError("Lanczos ran")

        monkeypatch.setattr(quantum, "_lowest_eigenvector", no_lanczos)
        spec = mf_spec(
            engine="quantum",
            initial="ground_state",
            params=ModelParams(lam=1.0, j=1.0, delta_phi=1.0, omega=omega),
            sample_count=3,
        )
        with pytest.raises(ValueError) as excinfo:
            run_protocol(spec)
        assert str(excinfo.value) == message

    def test_quantum_sweep_smoke(self):
        spec = mf_spec(
            engine="quantum",
            initial="stationary_circle",
            params=ModelParams(lam=1.0, j=0.5, delta_phi=1.0, n_max=30),
            sample_count=40,
            observables=("mean_photon_scaled", "parity"),
        )
        result = sweep_lambda(spec, [0.4, 1.0])
        assert all(cell.error is None for cell in result.cells)
        parity = result.values("parity")
        assert np.all(np.abs(parity) <= 1.0 + 1e-12)


class TestSweeps:
    def test_lambda_sweep_threshold_matches_critical_line(self):
        spec = mf_spec(sample_count=200, n_revolutions=1)
        values = np.round(np.arange(0.3, 1.21, 0.05), 10)
        result = sweep_lambda(spec, values)
        avg = result.values("mean_photon_scaled")
        lam_c = rotated_critical_coupling(1.0, 1.0, 1.0)
        below = values + 0.05 < lam_c
        above = values - 0.05 > lam_c
        assert np.all(avg[below] < NONZERO_THRESHOLD)
        assert np.all(avg[above] > NONZERO_THRESHOLD)

    def test_cell_count_must_match_axes(self):
        with pytest.raises(ValueError, match="cell count 0 != product of axis lengths 2"):
            SweepResult(axes=(("lambda", np.array([0.5, 1.0])),), cells=(), spec=mf_spec())

    def test_lambda_zero_gives_zero_photons(self):
        spec = mf_spec(initial="fock")
        result = sweep_lambda(spec, [0.0])
        assert result.cells[0].average["mean_photon_scaled"] == pytest.approx(0.0, abs=1e-15)

    def test_velocity_sweep_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            sweep_velocity(mf_spec(), [0.0, 1.0])

    def test_velocity_sweep_critical_velocity(self):
        spec = mf_spec(sample_count=400, n_revolutions=2)
        result = sweep_velocity(spec, [2.5, 3.5])
        cells = {cell.coords[0]: cell for cell in result.cells}
        assert cells[2.5].average["mean_photon_scaled"] > 0.05
        assert cells[3.5].average["mean_photon_scaled"] < 1e-3

    def test_subcritical_coupling_zero_for_all_velocities(self):
        spec = mf_spec(params=ModelParams(lam=0.3, j=1.0, delta_phi=1.0))
        result = sweep_velocity(spec, [0.5, 1.0, 2.0])
        for cell in result.cells:
            assert cell.average["mean_photon_scaled"] < 1e-12

    def test_nearly_fock_velocity_sweep_critical_velocity(self):
        # time average collapses above 4*lam^2/omega - omega0 = 3
        spec = mf_spec(
            initial="nearly_fock",
            epsilon=3.0,
            n_revolutions=20,
            sample_count=600,
            rtol=1e-9,
        )
        result = sweep_velocity(spec, [2.5, 3.5])
        cells = {cell.coords[0]: cell for cell in result.cells}
        assert cells[2.5].average["mean_photon_scaled"] > 0.05
        assert cells[3.5].average["mean_photon_scaled"] < 1e-3

    def test_axes_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            sweep_lambda(mf_spec(), [1.0, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_spectrum_rejects_non_finite_coupling(self, bad):
        # spectrum(1, 1, 1, [nan]) once returned a row whose lambda was NaN.
        with pytest.raises(ValueError, match="lambda values must be .*finite"):
            spectrum(1.0, 1.0, 1.0, [bad])

    def test_cell_error_isolation(self):
        # j below 2 makes scaled parity leave its domain at large spin
        # excursions: the failing cell is tagged, the sweep continues.
        spec = mf_spec(
            initial="stationary_dicke",
            params=ModelParams(lam=1.0, j=0.5, delta_phi=1.0),
            observables=("mean_photon_scaled", "scaled_parity"),
            n_revolutions=2,
        )
        result = sweep_lambda(spec, [0.3, 0.9])
        by_lam = {cell.coords[0]: cell for cell in result.cells}
        assert by_lam[0.3].error is None
        assert by_lam[0.9].error is not None
        assert "scaled parity" in by_lam[0.9].error

    def test_arithmetic_error_is_a_tagged_cell(self, monkeypatch):
        # An ArithmeticError inside one cell's run, here a ZeroDivisionError
        # put into the integrator, tags that cell; it once ended the sweep.
        from rotdicke import meanfield

        integrate = meanfield.integrate

        def dividing(start, params, *args, **kwargs):
            if params.lam == 0.9:
                raise ZeroDivisionError("float division by zero")
            return integrate(start, params, *args, **kwargs)

        monkeypatch.setattr(meanfield, "integrate", dividing)
        result = sweep_lambda(mf_spec(), [0.4, 0.9, 1.2])
        assert [cell.error for cell in result.cells] == [None, "float division by zero", None]
        assert result.cells[2].final["mean_photon_scaled"] > NONZERO_THRESHOLD

    def test_underflowing_stationary_labels_give_a_cell(self):
        # At lam = 1e-170 and omega = omega0 = 1e-200, Omega0 and 4 lam^2
        # underflow to 0 as floats; the stationary-Dicke labels once divided
        # one by the other (ZeroDivisionError).  |alpha|^2 = 2e60 at j = 1.
        params = ModelParams(lam=1e-170, omega=1e-200, omega0=1e-200, delta_phi=1.0, j=1.0)
        result = sweep_lambda(ProtocolSpec(params=params, sample_count=3), [0.0, 1e-170])
        first, second = result.cells
        assert first.error is None
        assert first.final == {"mean_photon_scaled": 0.0, "parity": 1.0}
        assert second.error is None
        photons = stationary_photon_scaled(1e-200, 1e-200, 1e-170)
        assert photons == pytest.approx(2e60, rel=1e-12)
        assert second.final["mean_photon_scaled"] == pytest.approx(photons, rel=1e-12)
        assert second.average["parity"] == 0.0

    def test_values_kind_is_average_or_final(self):
        result = sweep_lambda(mf_spec(initial="stationary_dicke", sample_count=100), [1.5])
        final, average = (result.values("mean_photon_scaled", kind)[0] for kind in ("final", "average"))
        assert final != average
        assert final == result.cells[0].final["mean_photon_scaled"]
        assert average == result.values("mean_photon_scaled")[0] == result.cells[0].average["mean_photon_scaled"]
        with pytest.raises(ValueError, match="kind"):
            result.values("mean_photon_scaled", "avg")

    def test_values_of_an_unrecorded_observable_name_spec_observables(self):
        # Once a bare KeyError, and an all-NaN grid where every cell had failed.
        recorded = sweep_lambda(mf_spec(sample_count=20), [0.5])
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0, omega=1e-200)
        failed = sweep_lambda(mf_spec(initial="stationary_dicke", params=params, sample_count=5), [1.0])
        assert recorded.cells[0].error is None and failed.cells[0].error is not None
        message = r"^observable 'parity' is not in spec\.observables \('mean_photon_scaled',\)$"
        for result in (recorded, failed):
            with pytest.raises(ValueError, match=message):
                result.values("parity")

    def test_determinism(self):
        spec = mf_spec(sample_count=150)
        r1 = sweep_lambda(spec, [0.4, 0.8, 1.1])
        r2 = sweep_lambda(spec, [0.4, 0.8, 1.1])
        for c1, c2 in zip(r1.cells, r2.cells):
            assert c1 == c2


class TestPhaseDiagram:
    def test_zero_region_matches_rotated_critical_line(self):
        spec = mf_spec(sample_count=200)
        lam_values = np.array([0.4, 0.7, 1.0, 1.3])
        dphi_values = np.array([0.5, 1.5, 3.0])
        result = phase_diagram(spec, lam_values, dphi_values)
        avg = result.values("mean_photon_scaled")
        for i, lam in enumerate(lam_values):
            for k, dphi in enumerate(dphi_values):
                lam_c = rotated_critical_coupling(1.0, 1.0, dphi)
                if lam < lam_c - 0.02:
                    assert avg[i, k] < NONZERO_THRESHOLD
                elif lam > lam_c + 0.02:
                    assert avg[i, k] > NONZERO_THRESHOLD

    def test_single_cell_matches_sweep(self):
        spec = mf_spec(sample_count=200)
        grid = phase_diagram(spec, [0.9], [1.0])
        line = sweep_lambda(
            replace(spec, params=replace(spec.params, delta_phi=1.0)), [0.9]
        )
        assert grid.cells[0].average == line.cells[0].average

    def test_overlays(self):
        spec = mf_spec(sample_count=100)
        result = phase_diagram(spec, [0.6], [0.5, 2.0])
        np.testing.assert_allclose(
            result.overlays["lambda_c_rot"],
            [rotated_critical_coupling(1.0, 1.0, 0.5), rotated_critical_coupling(1.0, 1.0, 2.0)],
        )
        assert result.overlays["lambda_c_dyn"][0] == pytest.approx(0.5 + 0.327 * 0.5**0.75)

    @pytest.mark.parametrize("lam, delta_phi", [(1.4, 1.0), (0.9, 0.5), (0.6, 0.25)])
    def test_region_holds_across_rtol(self, lam, delta_phi):
        # Chaotic nearly-Fock cells: past their horizon the time average moves
        # with rtol ((1.4, 1.0): 3.602 at 1e-9, 3.754 at 1e-12), but the
        # region stays "nonzero" at both.
        regions = []
        for rtol in (1e-9, 1e-12):
            spec = mf_spec(
                params=ModelParams(lam=1.0, j=6.0, delta_phi=1.0),
                initial="nearly_fock",
                epsilon=3.0,
                n_revolutions=150,
                sample_count=1501,
                rtol=rtol,
            )
            cell = phase_diagram(spec, [lam], [delta_phi]).cells[0]
            assert cell.error is None, cell.error
            regions.append(cell.region)
        assert regions[0] == regions[1], regions

    def test_region_classification(self):
        spec = mf_spec(sample_count=150)
        result = phase_diagram(spec, [0.4, 1.2], [1.0])
        regions = {cell.coords[0]: cell.region for cell in result.cells}
        assert regions[0.4] == "zero"
        assert regions[1.2] == "nonzero"

    def test_equality_compares_arrays_by_value(self):
        spec = mf_spec(sample_count=100)
        result = phase_diagram(spec, [0.4, 1.2], [1.0])
        assert result == phase_diagram(spec, [0.4, 1.2], [1.0])
        assert result != phase_diagram(spec, [0.4, 1.3], [1.0])
        shifted = {**result.overlays, "lambda_c_dyn": result.overlays["lambda_c_dyn"] + 1.0}
        assert result != replace(result, overlays=shifted)
        assert result != replace(result, overlays={})

    def test_cell_count_invariant(self):
        spec = mf_spec(sample_count=100)
        result = phase_diagram(spec, [0.4, 0.8, 1.2], [1.0, 2.0])
        assert len(result.cells) == 6
        # lexicographic order: lambda major, delta_phi minor
        coords = [cell.coords for cell in result.cells]
        assert coords == sorted(coords)
