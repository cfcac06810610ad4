"""Catalog registry tests plus scaled-down runs of every experiment.

The full quick-mode experiments run in the benchmark suite; here each
experiment function is exercised once (quick mode, fixed seed) to pin the
interface: correct id, populated rows, claimed columns present, fits sane.
These are the integration tests that keep the benchmark harness honest.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.experiments import EXPERIMENTS, get_experiment, run_experiment
from repro.io import result_wire
from repro.schema import canonical_json


class TestRegistry:
    def test_all_experiments_present(self):
        assert list(EXPERIMENTS) == [f"E{i}" for i in range(1, 24)]

    def test_specs_complete(self):
        for spec in EXPERIMENTS.values():
            assert spec.title
            assert spec.claim
            assert spec.bench_target.startswith("benchmarks/")

    def test_lookup_case_insensitive(self):
        assert get_experiment("e4").experiment_id == "E4"

    def test_unknown_raises(self):
        with pytest.raises(InvalidParameterError, match="unknown experiment"):
            get_experiment("E99")


# sha256 of canonical_json(result_wire(...)) for every quick run at
# seed 123: each table, fit and note pinned at full float precision.
QUICK_SEED_123_DIGESTS = {
    "E1": "915680ec621b009ee67fa6f60368b10a73f36dea90bc423c02b0d23e52aa886b",
    "E2": "8446b127aae01820be392dad26cb2cf11c2b0f5906bb961ef071de0d61c85a1b",
    "E3": "a2bb4e8bfa292282b4e8512789dd22e1eb4aedec87001cb7a6f172e6ac7b01eb",
    "E4": "eec1396e33f02cad6e24ec72f891c1f8704f04a072263364aeba8cf394d08f9c",
    "E5": "cb7ad007edc0f6c338cb230973d3b9df6c5dafacde30a7eaf90010b719ff8110",
    "E6": "f0ab2539efd61aea2c07efcf2a956b332a53f918043035de5a8e52c09d7a8309",
    "E7": "05bb56622d5e49a8d90bda0f4b46a05ab1b9a9503b35c5ccfb5e97f4be0b8909",
    "E8": "62987a83f9b6169b67118abb62339c4628607017e3950957c4ec9153811c4346",
    "E9": "667fce18e868fa651a6e773c7c49d72db7191e06fc24ef1bc6696cb02c68dfac",
    "E10": "7a092fe69aa52e93af12a875e507366a4ebb6bcb9eb293d82983f095651725a6",
    "E11": "673ae660b42dbd4ab6768a29b66430547c415d59f8c8d801bc0b47af1805faf4",
    "E12": "5e148fbb91eb477b7b003661f0586567fcc1485ea45da478b256e63c2819c0bf",
    "E13": "8185ab387c359f5642e8663787d2704212204049f0af58e76755491c284b246e",
    "E14": "71000c3a5be8e7d523bed967eedfc24af0a2432063309f1c5c448c432f671861",
    "E15": "3bc06151af4f73573c9e8317a610f2a6f9cee4d95d9e72ed683840e88c76a2bb",
    "E16": "c6f55c3d54fb9eb4a2c21e0aa255d77fc7e79efa0c4d0888584ee98961ec80ed",
    "E17": "2ffc28536fdf486a6c36fa973139327d273653b85ce5d00521fe44a670793373",
    "E18": "427ec36c06a3a2bfc134305ffaf562f6fc74e992d646d06f0bcd5d228eb9f7cf",
    "E19": "5dfa9439293299362fed73c0193060e1ef628dfde83d33773d8e5571020fb35a",
    "E20": "0b15776f70a0ed0afc8550756708eee24ba4df40d2268c9d5d398e57b1c32215",
    "E21": "0e5493b123b41c9a8ce1c4980d4478d7930812c1bffbe60cceac2ec51e179622",
    "E22": "5e829dcb6b5c4f76ef0f63cb15f564f8222fe49affc38829b52dc8c5b5492404",
    "E23": "3240e572ff8e61e588750017db0d09b9051f15dbb0060250ba1ecec43837adc3",
}


@pytest.mark.parametrize("eid", list(EXPERIMENTS))
class TestEveryExperimentRuns:
    def test_quick_run_produces_table(self, eid):
        result = run_experiment(eid, quick=True, seed=123)
        assert result.experiment_id == eid
        assert result.rows, f"{eid} produced no rows"
        assert result.columns
        # Every declared column appears in at least one row.
        for col in result.columns:
            assert any(col in row for row in result.rows), (
                f"{eid}: column {col!r} missing from all rows"
            )
        document = canonical_json(result_wire(result)).encode()
        assert hashlib.sha256(document).hexdigest() == QUICK_SEED_123_DIGESTS[eid]


class TestClaimShapes:
    """Assertions on the *direction* of each reproduced claim.

    Loose thresholds: these guard the qualitative finding (who wins, what
    grows), not the constants.
    """

    @pytest.fixture(scope="class")
    def results(self):
        # One shared quick run per experiment used by shape checks below.
        return {eid: run_experiment(eid, quick=True, seed=7) for eid in
                ["E1", "E3", "E4", "E5", "E9", "E10", "E11"]}

    def test_e1_sequential_much_slower(self, results):
        r = results["E1"]
        eg = r.column("eg mean")
        seq = r.column("sequential mean")
        # The collision-free baseline loses everywhere, increasingly so.
        assert np.all(seq > eg)
        assert seq[-1] / eg[-1] > 4

    def test_e1_eg_growth_sublinear(self, results):
        r = results["E1"]
        ns = r.column("n")
        eg = r.column("eg mean")
        assert eg[-1] / eg[0] < 2.0  # 8x n growth, < 2x time growth
        assert ns[-1] / ns[0] >= 8

    def test_e3_survival_monotone_decreasing(self, results):
        r = results["E3"]
        probs = [row["survival prob"] for row in r.rows if row.get("survival prob") is not None]
        assert probs[0] == 1.0
        assert probs[-1] <= 0.2
        assert all(a >= b - 0.15 for a, b in zip(probs, probs[1:]))

    def test_e3_relaxed_fit_positive_slope(self, results):
        fit = results["E3"].fits["relaxed rounds vs ln n"]
        assert fit.slope > 0

    def test_e4_lnn_fit_positive_and_decent(self, results):
        r = results["E4"]
        fit = r.fits["d = 4 ln n vs ln n"]
        assert fit.slope > 0

    def test_e5_eg_beats_decay_everywhere(self, results):
        r = results["E5"]
        assert np.all(r.column("decay / eg") > 1.2)

    def test_e9_coverage_constant_fraction(self, results):
        r = results["E9"]
        assert np.all(r.column("indep-cover coverage") > 0.2)

    def test_e9_matching_complete_at_d_squared(self, results):
        r = results["E9"]
        # The last row has |X|/|Y| ~ d²: matching completeness near 1.
        assert r.column("matching completeness")[-1] > 0.9

    def test_e10_dense_fit_positive(self, results):
        fit = results["E10"].fits["rounds vs ln n/ln(1/f)"]
        assert fit.slope > 0
        assert fit.r_squared > 0.7

    def test_e11_radio_within_constant_of_push(self, results):
        r = results["E11"]
        ratios = r.column("radio / push")
        assert np.all(ratios < 4.0)
        assert np.all(ratios > 0.25)


class TestExtensionClaimShapes:
    """Direction checks for the extension experiments (E13–E22)."""

    @pytest.fixture(scope="class")
    def results(self):
        return {eid: run_experiment(eid, quick=True, seed=11) for eid in
                ["E13", "E15", "E16", "E17", "E18", "E20", "E21", "E22"]}

    def test_e13_gossip_strictly_harder(self, results):
        r = results["E13"]
        assert np.all(r.column("gossip / broadcast") > 1.2)
        assert r.fits["gossip vs d ln n"].slope > 0

    def test_e13_injection_dominates(self, results):
        r = results["E13"]
        first = r.column("first-complete-node mean")
        total = r.column("gossip mean (uniform 1/d)")
        assert np.all(first > 0.5 * total)

    def test_e15_diameter_bound(self, results):
        r = results["E15"]
        assert r.fits["rgg decay vs diameter"].slope > 0
        # RGG diameter grows with n.
        diams = r.column("rgg diameter")
        assert diams[-1] > diams[0]

    def test_e16_adaptive_wins_off_expanders(self, results):
        rows = {row["family"]: row for row in results["E16"].rows}
        for fam in ("torus 32x32", "rgg"):
            assert rows[fam]["age-based mean"] < rows[fam]["eg mean"]

    def test_e17_decay_degree_robust(self, results):
        rows = {row["graph"]: row for row in results["E17"].rows}
        base = rows["gnp (uniform)"]["decay mean"]
        for name, row in rows.items():
            if name.startswith("chung-lu"):
                assert row["decay mean"] < 1.3 * base

    def test_e18_tree_bfs_deep(self, results):
        r = results["E18"]
        extra = r.column("tree depth mean") - r.column("bfs depth")
        assert np.all(extra >= 0)
        assert np.all(extra < 6)

    def test_e20_saturating_growth(self, results):
        times = results["E20"].column("rounds mean")
        assert times[-1] > times[0]
        assert times[-1] < 1.4 * times[-2]  # saturation

    def test_e21_regime_separation(self, results):
        r = results["E21"]
        gaps = r.column("spectral gap")
        times = r.column("decay mean")
        assert times[gaps >= 0.05].max() < times[gaps < 0.05].min()

    def test_e22_models_equivalent(self, results):
        ratios = results["E22"].column("ratio (gnm/gnp, protocol)")
        assert np.all((ratios > 0.7) & (ratios < 1.4))
