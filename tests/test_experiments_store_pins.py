"""The committed store contracts, pinned by sha256.

The example sweep and campaign stores are the outputs every refactor of
the experiment layer must leave byte-identical: at any worker count, and
(for the campaigns) after resuming a store cut short mid-cell.  The
five-model campaign pins each model's outcome rule and its trials' early
stop: its sha was recorded with every trial run to the end.
"""

import hashlib
from pathlib import Path

import pytest

from repro.experiments import CampaignSpec, ResultsStore, SweepSpec, run_campaign, run_sweep

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

PAPER_TABLE_SHA = "0854b5eadc6e19cf3328ff53f995b560bd8da695e0468b7fda1a06814471dc30"
CAMPAIGN_SMOKE_SHA = "224f12aa02d90749e8f7f77ddacaf516fab947dc25a9bf84cbf00d9b04a9af40"
CAMPAIGN_MODELS_SHA = "8a892569c3936da7c1f3b34666f814254a87dc25b08ada565226636a324fac01"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_paper_table_store_is_pinned(tmp_path):
    spec = SweepSpec.load(EXAMPLES / "paper_table.toml")
    store = ResultsStore(tmp_path / "sweep.jsonl")
    summary = run_sweep(spec, store, workers=2)
    assert summary.executed == len(spec.points()) and summary.errors == 0
    assert _sha256(store.path) == PAPER_TABLE_SHA


def _assert_pinned_fresh_and_resumed(tmp_path, example: str, sha: str, workers: int) -> None:
    spec = CampaignSpec.load(EXAMPLES / f"{example}.toml")
    store = ResultsStore(tmp_path / "campaign.jsonl")
    assert run_campaign(spec, store, workers=workers).errors == 0
    assert _sha256(store.path) == sha
    # Every calibration and three trials of the first cell survive the cut.
    keep = len(spec.cells()) + 3
    resumed = ResultsStore(tmp_path / "resumed.jsonl")
    resumed.path.write_bytes(b"".join(store.path.read_bytes().splitlines(keepends=True)[:keep]))
    summary = run_campaign(spec, resumed, workers=workers)
    assert summary.cached == keep and summary.errors == 0
    assert summary.trials_executed == len(spec.cells()) * spec.trials - 3
    assert _sha256(resumed.path) == sha


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_smoke_store_is_pinned_fresh_and_resumed(tmp_path, workers):
    _assert_pinned_fresh_and_resumed(tmp_path, "campaign_smoke", CAMPAIGN_SMOKE_SHA, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_models_store_is_pinned_fresh_and_resumed(tmp_path, workers):
    _assert_pinned_fresh_and_resumed(tmp_path, "campaign_models", CAMPAIGN_MODELS_SHA, workers)
