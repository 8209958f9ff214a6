"""The benchmark's output checks accept the program's real outputs and reject
each kind of corruption. Run with: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from depfuse.cli import main  # noqa: E402
from depfuse.corpus import SplitSpec, serialize_records, split_dataset  # noqa: E402
from depfuse.synth import SynthDatasetSpec, generate_dataset  # noqa: E402

EPOCHS = 4
LEXICON = checks.lexicon_tokens(
    (Path(__file__).resolve().parent.parent / "src/depfuse/data/negative_lexicon.txt").read_text("utf-8"))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A small corpus put through `depfuse train`, `predict` and `featurize`."""
    work = tmp_path_factory.mktemp("outputs")
    records = generate_dataset(SynthDatasetSpec(n_per_class=50, seed=5))
    corpus = work / "corpus.jsonl"
    corpus.write_bytes(serialize_records(records))
    run = work / "run"
    assert main(["train", "--corpus", str(corpus), "--seed", "5", "--epochs", str(EPOCHS),
                 "--lr", "5e-3", "--out-dir", str(run)]) == 0
    assert main(["predict", "--checkpoint", str(run / "checkpoint.json"), "--corpus",
                 str(corpus), "--out", str(work / "predictions.csv")]) == 0
    assert main(["featurize", "--corpus", str(corpus), "--out", str(work / "features.csv")]) == 0
    return {
        "records": records,
        "checkpoint": json.loads((run / "checkpoint.json").read_text("utf-8")),
        "history": (run / "history.csv").read_text("utf-8"),
        "metrics": (run / "metrics.json").read_text("utf-8"),
        "predictions": (work / "predictions.csv").read_text("utf-8"),
        "features": (work / "features.csv").read_text("utf-8"),
    }


def _ids(outputs):
    return [r.user_id for r in outputs["records"]]


def test_real_outputs_pass(outputs):
    checks.check_features_csv(outputs["features"], outputs["records"], LEXICON)
    preds = checks.check_predictions_csv(outputs["predictions"], _ids(outputs))
    checks.check_probabilities(preds, outputs["checkpoint"], outputs["records"], LEXICON)
    checks.check_metrics(outputs["metrics"], preds, checks.validation_slice(outputs["records"], 0.8, 5))
    checks.check_history(outputs["history"], EPOCHS)


def test_validation_slice_matches_documented_split(outputs):
    records = outputs["records"]
    _, validation = split_dataset(records, SplitSpec(ratio=0.8, seed=5))
    assert checks.validation_slice(records, 0.8, 5) == validation


def _flip_prediction(text: str) -> str:
    lines = text.split("\n")
    user, prob, pred = lines[1].split(",")
    lines[1] = f"{user},{prob},{1 - int(pred)}"
    return "\n".join(lines)


def test_flipped_prediction_rejected(outputs):
    with pytest.raises(checks.CheckFailed, match="prediction"):
        checks.check_predictions_csv(_flip_prediction(outputs["predictions"]), _ids(outputs))


def test_flipped_prediction_rejected_by_metrics_recount(outputs):
    validation = checks.validation_slice(outputs["records"], 0.8, 5)
    preds = checks.check_predictions_csv(outputs["predictions"], _ids(outputs))
    first = validation[0].user_id
    prob, pred = preds[first]
    preds[first] = (1.0 - prob, 1 - pred)
    with pytest.raises(checks.CheckFailed, match="confusion"):
        checks.check_metrics(outputs["metrics"], preds, validation)


def test_flipped_probability_rejected_by_loop_forward(outputs):
    preds = checks.check_predictions_csv(outputs["predictions"], _ids(outputs))
    first = outputs["records"][0]
    prob, pred = preds[first.user_id]
    preds[first.user_id] = (round(1.0 - prob, 6), 1 - pred)
    with pytest.raises(checks.CheckFailed, match="loop forward"):
        checks.check_probabilities(preds, outputs["checkpoint"], [first], LEXICON)


def test_perturbed_statistic_rejected(outputs):
    lines = outputs["features"].split("\n")
    fields = lines[3].split(",")
    fields[5] = f"{float(fields[5]) + 2e-6:.6f}"  # posting_time_sd
    lines[3] = ",".join(fields)
    with pytest.raises(checks.CheckFailed, match="posting_time_sd"):
        checks.check_features_csv("\n".join(lines), outputs["records"], LEXICON)


@pytest.mark.parametrize("name", ["predictions", "features"])
def test_missing_row_rejected(outputs, name):
    lines = outputs[name].split("\n")
    del lines[7]
    text = "\n".join(lines)
    with pytest.raises(checks.CheckFailed, match="rows for"):
        if name == "predictions":
            checks.check_predictions_csv(text, _ids(outputs))
        else:
            checks.check_features_csv(text, outputs["records"], LEXICON)


def test_history_with_rising_loss_rejected():
    text = checks.HISTORY_HEADER + "\n1,0.300000,1.0,1.0,0.0\n2,0.400000,1.0,1.0,0.0\n"
    with pytest.raises(checks.CheckFailed, match="did not fall"):
        checks.check_history(text, 2)
