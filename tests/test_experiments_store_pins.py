"""The committed store contracts, pinned by sha256.

The example sweep and campaign stores are the outputs every refactor of
the experiment layer must leave byte-identical: at any worker count, and
(for the campaign) after resuming a store cut short mid-cell.
"""

import hashlib
from pathlib import Path

import pytest

from repro.experiments import CampaignSpec, ResultsStore, SweepSpec, run_campaign, run_sweep

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

PAPER_TABLE_SHA = "0854b5eadc6e19cf3328ff53f995b560bd8da695e0468b7fda1a06814471dc30"
CAMPAIGN_SMOKE_SHA = "224f12aa02d90749e8f7f77ddacaf516fab947dc25a9bf84cbf00d9b04a9af40"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_paper_table_store_is_pinned(tmp_path):
    spec = SweepSpec.load(EXAMPLES / "paper_table.toml")
    store = ResultsStore(tmp_path / "sweep.jsonl")
    summary = run_sweep(spec, store, workers=2)
    assert summary.executed == len(spec.points()) and summary.errors == 0
    assert _sha256(store.path) == PAPER_TABLE_SHA


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_smoke_store_is_pinned_fresh_and_resumed(tmp_path, workers):
    spec = CampaignSpec.load(EXAMPLES / "campaign_smoke.toml")
    store = ResultsStore(tmp_path / "campaign.jsonl")
    assert run_campaign(spec, store, workers=workers).errors == 0
    assert _sha256(store.path) == CAMPAIGN_SMOKE_SHA
    # Both calibrations and three trials of the first cell survive the cut.
    resumed = ResultsStore(tmp_path / "resumed.jsonl")
    resumed.path.write_bytes(b"".join(store.path.read_bytes().splitlines(keepends=True)[:5]))
    summary = run_campaign(spec, resumed, workers=workers)
    assert summary.cached == 5 and summary.errors == 0
    assert summary.trials_executed == len(spec.cells()) * spec.trials - 3
    assert _sha256(resumed.path) == CAMPAIGN_SMOKE_SHA
