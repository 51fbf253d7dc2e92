import numpy as np
import pytest

from hpsep.metrics import (
    DB_CAP,
    decompose,
    evaluate_track,
    read_report,
    sdr_sir_sar,
    write_report,
)


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def disjoint_refs(n=1200):
    """Two exactly orthogonal references built on disjoint supports."""
    a = np.zeros(n)
    b = np.zeros(n)
    a[: n // 2] = np.sin(np.linspace(0.0, 20.0, n // 2))
    b[n // 2 :] = np.cos(np.linspace(0.0, 14.0, n - n // 2))
    return a, b


class TestDecompose:
    def test_perfect_estimate(self):
        t, o = disjoint_refs()
        s_target, e_interf, e_artif = decompose(t, (t, o))
        np.testing.assert_allclose(s_target, t, atol=1e-12)
        np.testing.assert_allclose(e_interf, 0.0, atol=1e-12)
        np.testing.assert_allclose(e_artif, 0.0, atol=1e-12)

    def test_pure_interference(self):
        t, o = disjoint_refs()
        s_target, e_interf, e_artif = decompose(o, (t, o))
        np.testing.assert_allclose(s_target, 0.0, atol=1e-12)
        np.testing.assert_allclose(e_interf, o, atol=1e-12)
        np.testing.assert_allclose(e_artif, 0.0, atol=1e-12)

    def test_known_coefficients_recovered(self, rng):
        t, o = disjoint_refs()
        noise = rng.standard_normal(t.shape[0])
        # make the artifact part orthogonal to both references
        for ref in (t, o):
            noise -= (noise @ ref) / (ref @ ref) * ref
        est = 0.8 * t + 0.3 * o + noise
        s_target, e_interf, e_artif = decompose(est, (t, o))
        np.testing.assert_allclose(s_target, 0.8 * t, atol=1e-10)
        np.testing.assert_allclose(e_interf, 0.3 * o, atol=1e-10)
        np.testing.assert_allclose(e_artif, noise, atol=1e-10)

    def test_parts_sum_to_estimate(self, rng):
        n = 3000
        t = rng.standard_normal(n)
        o = rng.standard_normal(n)
        est = rng.standard_normal(n)
        parts = decompose(est, (t, o))
        np.testing.assert_allclose(sum(parts), est, atol=1e-10)

    def test_energy_identity(self, rng):
        n = 3000
        t = rng.standard_normal(n)
        o = 0.4 * t + rng.standard_normal(n)  # correlated refs on purpose
        est = rng.standard_normal(n)
        s_target, e_interf, e_artif = decompose(est, (t, o))
        lhs = est @ est
        rhs = s_target @ s_target + e_interf @ e_interf + e_artif @ e_artif
        assert abs(lhs - rhs) / lhs < 1e-10

    def test_zero_reference_rejected(self, rng):
        sig = rng.standard_normal(100)
        with pytest.raises(ValueError):
            decompose(sig, (np.zeros(100), sig))
        with pytest.raises(ValueError):
            decompose(sig, (sig, np.zeros(100)))

    def test_collinear_references_rejected(self, rng):
        t = rng.standard_normal(500)
        with pytest.raises(ValueError):
            decompose(rng.standard_normal(500), (t, -2.0 * t))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            decompose(rng.standard_normal(10), (rng.standard_normal(9), rng.standard_normal(10)))


class TestScores:
    def test_perfect_estimate_hits_caps(self):
        t, o = disjoint_refs()
        scores = sdr_sir_sar(*decompose(t, (t, o)))
        assert scores == (DB_CAP, DB_CAP, DB_CAP)

    def test_equal_energy_interference(self):
        t, o = disjoint_refs()
        t = t / np.sqrt(t @ t)
        o = o / np.sqrt(o @ o)
        sdr, sir, sar = sdr_sir_sar(*decompose(t + o, (t, o)))
        assert abs(sdr) < 1e-9
        assert abs(sir) < 1e-9
        assert sar == DB_CAP

    def test_swapped_estimates_floor_sir(self):
        t, o = disjoint_refs()
        with pytest.warns(UserWarning):
            rep = evaluate_track(o, t, t, o)
        assert rep.percussive.sir_db == -DB_CAP
        assert rep.harmonic.sir_db == -DB_CAP

    def test_scale_invariance(self, rng):
        n = 2000
        t, o = disjoint_refs(n)
        est = 0.7 * t + 0.2 * o + 0.05 * rng.standard_normal(n)
        base = sdr_sir_sar(*decompose(est, (t, o)))
        scaled = sdr_sir_sar(*decompose(3.7 * est, (t, o)))
        np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_caps_bound_everything(self, rng):
        t, o = disjoint_refs()
        est = 1e-30 * t + 1e8 * o
        scores = sdr_sir_sar(*decompose(est, (t, o)))
        assert all(-DB_CAP <= s <= DB_CAP for s in scores)


class TestEvaluateTrack:
    def test_identity_report(self):
        t, o = disjoint_refs()
        rep = evaluate_track(t, o, t, o, track="tr0")
        assert rep.track == "tr0"
        assert rep.percussive.sdr_db == DB_CAP
        assert rep.harmonic.sdr_db == DB_CAP
        assert rep.average.sdr_db == DB_CAP

    def test_average_is_mean_of_sources(self, rng):
        n = 2500
        t, o = disjoint_refs(n)
        ep = 0.9 * t + 0.1 * o + 0.01 * rng.standard_normal(n)
        eh = 0.8 * o + 0.2 * t + 0.01 * rng.standard_normal(n)
        rep = evaluate_track(ep, eh, t, o)
        assert rep.average.sdr_db == pytest.approx(
            0.5 * (rep.percussive.sdr_db + rep.harmonic.sdr_db)
        )

    def test_errors_name_track_and_source(self):
        t, o = disjoint_refs()
        with pytest.raises(ValueError,
                           match=r"^track001 harmonic: length mismatch: estimate \(1199,\)"):
            evaluate_track(t, o[:-1], t, o, track="track001")
        with pytest.raises(ValueError, match="^track002 percussive: zero-energy reference$"):
            evaluate_track(t, o, np.zeros_like(t), o, track="track002")
        with pytest.raises(ValueError, match="^track003 percussive: references are collinear"):
            evaluate_track(t, o, t, 2.0 * t, track="track003")


class TestReportCsv:
    def test_roundtrip(self, tmp_path, rng):
        t, o = disjoint_refs()
        rep = evaluate_track(t, o, t, o, track="trk")
        path = tmp_path / "report.csv"
        write_report([rep], path)
        rows = read_report(path)
        assert len(rows) == 3
        assert rows[0]["track"] == "trk"
        assert [r["source"] for r in rows] == ["percussive", "harmonic", "average"]
        assert float(rows[0]["sdr_db"]) == DB_CAP
        assert set(rows[0]) == {"track", "source", "sdr_db", "sir_db", "sar_db"}
