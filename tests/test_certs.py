"""Certificate reports: pinned output, per-graph detail and failure on a
broken implementation."""

import re

from mags import metrics
from mags.certs import cert_ensemble_identity, cert_gossip_contraction


class TestEnsembleIdentity:
    def test_report_is_pinned_at_seed_0(self):
        # the per-set draw order (members, then label) fixes these digits;
        # drawing all sets at once would change them
        assert cert_ensemble_identity(seed=0).detail == (
            "max residual 2.220e-15, min diversity 1.844e-02, "
            "K in (2, 4, 16), 10000 sets each")

    def test_unnormalized_ensemble_fails_with_its_residual(self, monkeypatch):
        # mutation check: an ensemble "log-softmax" that does not normalize
        # breaks the identity, and the report names by how much
        monkeypatch.setattr(metrics, "log_softmax", lambda z: 2 * z)
        result = cert_ensemble_identity(seed=0, sets=200)
        assert not result.passed
        assert result.line().startswith("FAIL ensemble-identity: K=2: ")
        residuals = re.findall(r"K=(\d+): ensemble decomposition identity violated by ([^;,]+)",
                               result.detail)
        assert [int(k) for k, _ in residuals] == [2, 4, 16]
        assert all(float(r) > 1e-9 for _, r in residuals)


class TestGossipContraction:
    def test_reports_each_graphs_slack(self):
        result = cert_gossip_contraction(seed=0)
        assert result.passed
        slack = dict(re.findall(r"(ring|complete|torus) (\d\.\d{3}e[+-]\d+)", result.detail))
        assert set(slack) == {"ring", "complete", "torus"}
        # one round on the complete graph is exact consensus, so its slack
        # is the 1e-9 tolerance alone; ring and torus keep a real margin
        assert float(slack["complete"]) <= 1e-9
        assert float(slack["ring"]) > 1e-9 and float(slack["torus"]) > 1e-9
