import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tinymm

from tinymm.audio import AudioClip, save_wav
from tinymm.blob import read_blob, write_blob
from tinymm.cli import main
from tinymm.costs import model_size_bits
from tinymm.graph import cost_report, sensitivity_table
from tinymm.image import save_ppm
from tinymm.reference_models import build_reference, reference_config, reference_weight_records

from model_fixtures import mutated_config, tiny_config, tiny_records, wide_config, wide_records


@pytest.fixture(scope="module")
def media(tmp_path_factory):
    """Synthesized WAV/PPM inputs and a calibration directory for covid."""
    root = tmp_path_factory.mktemp("media")
    rng = np.random.default_rng(0)
    save_wav(root / "cough.wav", AudioClip(rng.uniform(-0.4, 0.4, 44100), 22050))
    save_wav(root / "speech.wav", AudioClip(rng.uniform(-0.4, 0.4, 33200), 16600))
    save_wav(root / "bf_audio.wav", AudioClip(rng.uniform(-0.4, 0.4, 22050), 22050))
    save_ppm(root / "bf_img.ppm", rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8))
    cal = root / "cal"
    cal.mkdir()
    for i in range(2):
        save_wav(cal / f"s{i}.cough_in.wav", AudioClip(rng.uniform(-0.4, 0.4, 44100), 22050))
        save_wav(cal / f"s{i}.speech_in.wav", AudioClip(rng.uniform(-0.4, 0.4, 33200), 16600))
    return root


def _assignment_file(path, bits_map):
    doc = {"schema": "tinymm-assignment-v1", "bits": bits_map}
    path.write_text(json.dumps(doc))
    return str(path)


def _uniform_assignment(model, bits):
    graph = build_reference(model)
    return {l.name: bits for l in graph.weighted_layers}


def test_inspect_matches_cost_model(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["inspect", "covid", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    report = cost_report(build_reference("covid"))
    assert doc["total_params"] == report.total_params
    assert doc["total_macs"] == report.total_macs
    by_name = {l["name"]: l for l in doc["layers"]}
    for layer in report.layers:
        assert by_name[layer.name]["macs"] == layer.macs
    text = capsys.readouterr().out
    assert "cough_conv1" in text and "TOTAL" in text


def test_inspect_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["inspect", "battlefield", "--out", str(a)]) == 0
    assert main(["inspect", "battlefield", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_inspect_missing_file_exit_2(capsys):
    rc = main(["inspect", "/no/such/model.json", "--weights", "/no/such/blob"])
    assert rc == 2
    assert "/no/such/model.json" in capsys.readouterr().err


def test_inspect_mutated_configs_exit_2(tmp_path, capsys):
    blob = tmp_path / "w.tmmw"
    write_blob(blob, reference_weight_records("covid"))
    config = tmp_path / "mutated.json"
    rng = np.random.default_rng(1)
    codes = []
    for _ in range(60):
        config.write_text(json.dumps(mutated_config(reference_config("covid"), rng)))
        codes.append(main(["inspect", str(config), "--weights", str(blob)]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 2)  # 0: the edits left a valid config
        assert "Traceback" not in err
        if codes[-1] == 2:
            assert err.startswith("cannot load model:")
    assert codes.count(2) > 30


def test_inspect_malformed_config_subprocess_exit_2(tmp_path):
    blob = tmp_path / "w.tmmw"
    write_blob(blob, reference_weight_records("covid"))
    doc = reference_config("covid")
    doc["layers"][0]["source"] = "mfcc"
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(tinymm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "tinymm.cli", "inspect", str(config), "--weights", str(blob)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "cannot load model" in proc.stderr


def test_allocate_boundary_budgets(tmp_path):
    report = cost_report(build_reference("covid"))
    names = [l.name for l in report.layers]
    all4 = model_size_bits(report, {n: 4 for n in names})
    out = tmp_path / "assn.json"
    assert main(["allocate", "covid", "--size-budget", str(all4), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(b == 4 for b in doc["bits"].values())
    assert doc["size_bits"] == all4
    # the objective scores each ds layer's dw and pw at their own scales
    table = sensitivity_table(build_reference("covid"))
    assert doc["objective"] == pytest.approx(sum(table.get(n, 4) for n in names), rel=1e-12)


def test_allocate_infeasible_exit_3():
    assert main(["allocate", "covid", "--size-budget", "1"]) == 3


def test_allocate_honours_float_valued_pins(tmp_path):
    # every weighted layer pinned at 8.0: only all-8-bit is allowed
    config = reference_config("battlefield")
    for doc in config["layers"]:
        if doc["kind"] in ("conv2d", "ds_conv2d", "dense"):
            doc["bits"] = 8.0
    cfg = tmp_path / "bf.json"
    cfg.write_text(json.dumps(config))
    blob = tmp_path / "bf.tmmw"
    write_blob(blob, reference_weight_records("battlefield"))
    report = cost_report(build_reference("battlefield"))
    all8 = model_size_bits(report, {l.name: 8 for l in report.layers})
    model = [str(cfg), "--weights", str(blob)]
    assert main(["allocate", *model, "--size-budget", str(all8 - 1)]) == 3
    out = tmp_path / "assn.json"
    assert main(["allocate", *model, "--size-budget", str(all8), "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["bits"].values()) == {8}


def test_allocate_bops_budget(tmp_path):
    from tinymm.costs import bops

    report = cost_report(build_reference("covid"))
    names = [l.name for l in report.layers]
    all4_bops = bops(report, {n: 4 for n in names})
    out = tmp_path / "a.json"
    assert main(["allocate", "covid", "--bops-budget", str(all4_bops),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(b == 4 for b in doc["bits"].values())
    assert doc["bops"] <= all4_bops


def test_allocate_sweep(tmp_path):
    report = cost_report(build_reference("covid"))
    names = [l.name for l in report.layers]
    all4 = model_size_bits(report, {n: 4 for n in names})
    all8 = model_size_bits(report, {n: 8 for n in names})
    out = tmp_path / "sweep.json"
    budgets = f"{all4},{(all4 + all8) // 2},{all8}"
    assert main(["allocate", "covid", "--sweep", budgets, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["entries"]) == 3
    objs = [e["objective"] for e in doc["entries"]]
    assert objs == sorted(objs, reverse=True)
    assert all(b == 4 for b in doc["entries"][0]["bits"].values())
    assert all(b == 8 for b in doc["entries"][-1]["bits"].values())


def _weight_payload(records, quantized):
    keys = (".wq", ".dwq", ".pwq") if quantized else (".w", ".dw", ".pw")
    return sum(
        r.payload_bytes for r in records.values() if any(r.name.endswith(k) for k in keys)
    )


@pytest.mark.parametrize("bits,ratio", [(8, 0.25), (4, 0.125)])
def test_quantize_payload_ratio(tmp_path, media, bits, ratio):
    assn = _assignment_file(tmp_path / "assn.json", _uniform_assignment("covid", bits))
    out = tmp_path / "q.tmmw"
    rc = main(["quantize", "covid", "--assignment", assn,
               "--calibration-dir", str(media / "cal"), "--out", str(out)])
    assert rc == 0
    records = read_blob(out)
    report = cost_report(build_reference("covid"))
    float_payload = 4 * report.total_params
    got = _weight_payload(records, quantized=True)
    assert got == pytest.approx(ratio * float_payload, rel=1e-3)


def test_quantize_mixed_payload_between(tmp_path, media):
    bits_map = _uniform_assignment("covid", 8)
    for i, name in enumerate(sorted(bits_map)):
        if i % 2:
            bits_map[name] = 4
    assn = _assignment_file(tmp_path / "assn.json", bits_map)
    out = tmp_path / "q.tmmw"
    assert main(["quantize", "covid", "--assignment", assn,
                 "--calibration-dir", str(media / "cal"), "--out", str(out)]) == 0
    report = cost_report(build_reference("covid"))
    got = _weight_payload(read_blob(out), quantized=True)
    assert 0.125 * 4 * report.total_params < got < 0.25 * 4 * report.total_params


def test_quantize_empty_calibration_exit_4(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assn = _assignment_file(tmp_path / "a.json", _uniform_assignment("covid", 8))
    rc = main(["quantize", "covid", "--assignment", assn,
               "--calibration-dir", str(empty), "--out", str(tmp_path / "q.tmmw")])
    assert rc == 4


_BAD_ASSIGNMENTS = {
    "not-json": "bits: all 8",
    "top-level-list": "[8, 4]",
    "bits-list": '{"bits": [1]}',
    "bits-not-a-number": '{"bits": {"x": "a"}}',
}

# assignments that parse but do not fit the pinned covid model: each maps a
# layer to a width, or None to leave that layer out
_PIN = "cough_conv1"
_MISFIT_ASSIGNMENTS = {
    "misses-a-layer": {"head_fc1": None},
    "contradicts-a-pin": {_PIN: 4},
    "width-not-4-or-8": {"speech_sep1": 6},
    "names-an-unknown-layer": {"cough_conv9": 6},
}


@pytest.fixture(scope="module")
def pinned_covid(tmp_path_factory):
    """The covid config with one layer pinned at 8 bits, and its weight blob."""
    root = tmp_path_factory.mktemp("pinned")
    doc = reference_config("covid")
    next(l for l in doc["layers"] if l["name"] == _PIN)["bits"] = 8
    (root / "covid.json").write_text(json.dumps(doc))
    write_blob(root / "w.tmmw", reference_weight_records("covid"))
    return [str(root / "covid.json"), "--weights", str(root / "w.tmmw")]


def _misfit_text(edits):
    bits = _uniform_assignment("covid", 8)
    for name, width in edits.items():
        if width is None:
            del bits[name]
        else:
            bits[name] = width
    return json.dumps({"schema": "tinymm-assignment-v1", "bits": bits})


@pytest.mark.parametrize("doc", list(_BAD_ASSIGNMENTS) + list(_MISFIT_ASSIGNMENTS))
@pytest.mark.parametrize("command", ["quantize", "infer", "bench"])
def test_malformed_assignment_exit_2(tmp_path, media, pinned_covid, capsys, command, doc):
    # each command reads and checks the assignment through one helper: a load failure
    assn = tmp_path / "assn.json"
    if doc in _BAD_ASSIGNMENTS:
        assn.write_text(_BAD_ASSIGNMENTS[doc])
    else:
        assn.write_text(_misfit_text(_MISFIT_ASSIGNMENTS[doc]))
    argv = {
        "quantize": ["quantize", *pinned_covid, "--assignment", str(assn),
                     "--calibration-dir", str(media / "cal"), "--out", str(tmp_path / "q.tmmw")],
        "infer": ["infer", *pinned_covid, "--audio", str(media / "cough.wav"),
                  "--audio2", str(media / "speech.wav"), "--quantized", str(assn)],
        "bench": ["bench", *pinned_covid, "--reps", "1", "--quantized", str(assn)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("cannot read assignment:")


def test_assignment_that_honours_the_pin_runs(tmp_path, media, pinned_covid):
    assn = tmp_path / "assn.json"
    assn.write_text(_misfit_text({}))
    assert main(["bench", *pinned_covid, "--reps", "1", "--quantized", str(assn)]) == 0


def test_assignment_that_can_overflow_the_accumulator_exit_2(tmp_path, capsys):
    # a_fc's 32,897 products of 8-bit operands can leave int32: a load failure,
    # found before any input is read (bench used to report it as calibration's)
    (tmp_path / "wide.json").write_text(json.dumps(wide_config()))
    write_blob(tmp_path / "w.tmmw", list(wide_records().values()))
    model = [str(tmp_path / "wide.json"), "--weights", str(tmp_path / "w.tmmw")]
    assn = _assignment_file(tmp_path / "assn.json", {"a_fc": 8, "b_fc": 8, "h_fc": 8})
    for argv in (["quantize", *model, "--assignment", assn, "--calibration-dir", str(tmp_path),
                  "--out", str(tmp_path / "q.tmmw")],
                 ["infer", *model, "--quantized", assn],
                 ["bench", *model, "--reps", "1", "--quantized", assn]):
        assert main(argv) == 2
        assert "32-bit accumulator" in capsys.readouterr().err


def test_infer_covid(tmp_path, media, capsys):
    out = tmp_path / "probs.json"
    rc = main(["infer", "covid", "--audio", str(media / "cough.wav"),
               "--audio2", str(media / "speech.wav"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["probs"]) == 2
    assert sum(doc["probs"]) == pytest.approx(1.0, abs=1e-6)
    assert doc["argmax"] == int(np.argmax(doc["probs"]))
    assert "probs" in capsys.readouterr().out


def test_infer_battlefield(tmp_path, media):
    out = tmp_path / "probs.json"
    rc = main(["infer", "battlefield", "--audio", str(media / "bf_audio.wav"),
               "--image", str(media / "bf_img.ppm"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["probs"]) == 4
    assert sum(doc["probs"]) == pytest.approx(1.0, abs=1e-6)


def test_infer_wrong_sample_rate_exit_5(tmp_path, media, capsys):
    bad = tmp_path / "bad.wav"
    rng = np.random.default_rng(1)
    save_wav(bad, AudioClip(rng.uniform(-0.2, 0.2, 16000), 16000))
    rc = main(["infer", "covid", "--audio", str(bad), "--audio2", str(media / "speech.wav")])
    assert rc == 5
    assert "sample rate" in capsys.readouterr().err


def test_infer_input_without_media_source_exit_5(tmp_path, media, capsys):
    # tiny_config's inputs declare no source, so no flag can feed them
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(tiny_config()))
    blob = tmp_path / "tiny.tmmw"
    write_blob(blob, tiny_records())
    rc = main(["infer", str(cfg), "--weights", str(blob), "--audio", str(media / "cough.wav"),
               "--audio2", str(media / "speech.wav")])
    assert rc == 5
    assert "a_in" in capsys.readouterr().err


def test_allocate_quantize_infer_round_trip(tmp_path, media):
    assn = tmp_path / "assn.json"
    assert main(["allocate", "covid", "--size-budget", "700000", "--out", str(assn)]) == 0
    chosen = set(json.loads(assn.read_text())["bits"].values())
    assert chosen == {4, 8}  # the budget sits between the uniform endpoints
    assert main(["quantize", "covid", "--assignment", str(assn),
                 "--calibration-dir", str(media / "cal"),
                 "--out", str(tmp_path / "q.tmmw")]) == 0
    out = tmp_path / "p.json"
    rc = main(["infer", "covid", "--audio", str(media / "cough.wav"),
               "--audio2", str(media / "speech.wav"),
               "--quantized", str(assn), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert sum(doc["probs"]) == pytest.approx(1.0, abs=1e-6)


def test_battlefield_quantized_cli_round_trip(tmp_path, media):
    rng = np.random.default_rng(3)
    cal = tmp_path / "bf_cal"
    cal.mkdir()
    for i in range(2):
        save_wav(cal / f"s{i}.audio_in.wav", AudioClip(rng.uniform(-0.4, 0.4, 22050), 22050))
        save_ppm(cal / f"s{i}.image_in.ppm",
                 rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8))
    bits_map = _uniform_assignment("battlefield", 8)
    for i, name in enumerate(sorted(bits_map)):
        if i % 2:
            bits_map[name] = 4
    assn = _assignment_file(tmp_path / "bf.json", bits_map)
    blob = tmp_path / "bf.tmmw"
    assert main(["quantize", "battlefield", "--assignment", assn,
                 "--calibration-dir", str(cal), "--out", str(blob)]) == 0
    out = tmp_path / "bf_probs.json"
    rc = main(["infer", "battlefield", "--audio", str(media / "bf_audio.wav"),
               "--image", str(media / "bf_img.ppm"),
               "--quantized", assn, "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["probs"]) == 4
    assert sum(doc["probs"]) == pytest.approx(1.0, abs=1e-6)


def test_infer_deterministic_and_parallel_identical(tmp_path, media):
    outs = []
    for i, extra in enumerate(([], ["--parallel"])):
        for run in range(2):
            out = tmp_path / f"o{i}{run}.json"
            rc = main(["infer", "covid", "--audio", str(media / "cough.wav"),
                       "--audio2", str(media / "speech.wav"), "--out", str(out)] + extra)
            assert rc == 0
            outs.append(out.read_text())
    assert len(set(outs)) == 1


def test_bench_reports(tmp_path, media):
    for model in ("covid", "battlefield"):
        out = tmp_path / f"{model}.json"
        assert main(["bench", model, "--reps", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["reps"] == 3
        assert doc["batch_size"] == 1
        assert 0 < doc["min_s"] <= doc["median_s"] <= doc["mean_s"] * 3
        assert doc["mode"] == "float32"


def test_bench_quantized(tmp_path):
    assn = _assignment_file(tmp_path / "a.json", _uniform_assignment("covid", 8))
    out = tmp_path / "b.json"
    assert main(["bench", "covid", "--reps", "2", "--quantized", assn,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mode"] == "quantized"


def test_bench_single_rep(tmp_path):
    out = tmp_path / "b.json"
    assert main(["bench", "battlefield", "--reps", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["min_s"] > 0
