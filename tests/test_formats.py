"""Trace, report and table files: golden bytes and one-line errors.

The files under tests/data/ were written from the records below by the
hand-written serialisers that preceded the dataclass-derived codec, so the
golden tests pin the formats byte for byte.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from prunekit import harness, model_io, pruner

DATA = Path(__file__).parent / "data"


def golden_traces():
    return [
        pruner.PruneTrace(layer_index=3, conv_ordinal=2, variant="magnitude",
                          budget=2, lambda_final=None, support=(0, 4),
                          residual_before=1.5, residual_after=0.1 + 0.2,
                          damping=0.0, exhaustive_locations=True,
                          budget_warning=False, normal_residual=1e-17,
                          weight_norm=2.5, rhs_scale=3.0, converged=True),
        pruner.PruneTrace(layer_index=6, conv_ordinal=3, variant="cpli",
                          budget=np.int64(3),
                          lambda_final=np.float64(0.012345678901234567),
                          support=(1, 5, 7), residual_before=12.75,
                          residual_after=np.float64(10) / 3, damping=1e-08,
                          exhaustive_locations=False, budget_warning=np.True_,
                          normal_residual=2.220446049250313e-16,
                          weight_norm=7.0710678118654755, rhs_scale=1234.5,
                          converged=False),
    ]


def golden_report():
    layers = [harness.LayerPruneStat(layer_index=0, conv_ordinal=1, kept=1, total=1,
                                     flops_before=41472, flops_after=20736),
              harness.LayerPruneStat(layer_index=3, conv_ordinal=2, kept=5, total=8,
                                     flops_before=165888, flops_after=51840)]
    report = harness.CompressionReport(
        variant="cpli", seed=10, num_locations=10, layers=layers,
        flops_before=207360, flops_after=72576, compression_ratio=207360 / 72576,
        accuracy_baseline=0.8125, accuracy_pruned=0.3, timings={"prune_s": 1.5})
    return report.with_finetuned(0.7)


def golden_table():
    rows = [harness.ExperimentRow(
        variant=variant, num_locations=10, seeds=(2, 10), accuracy_finetuned=accs,
        accuracy_drop=tuple(a - b for a, b in zip(accs, (0.75, 0.8125))),
        accuracy_finetuned_mean=float(np.mean(accs)),
        accuracy_drop_mean=float(np.mean([a - b for a, b in zip(accs, (0.75, 0.8125))])),
        compression_ratio_mean=cr)
        for variant, accs, cr in (("cpli", (0.7, 0.6875), 2.0571428571428574),
                                  ("magnitude", (0.1, 0.65), 1.9))]
    return harness.ExperimentResult(rows=rows, reports={},
                                    baseline_accuracy={2: 0.75, 10: 0.8125})


def one_line_error(excinfo):
    message = str(excinfo.value)
    assert "\n" not in message
    return message


class TestGoldenFiles:
    def test_trace_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "trace.txt"
        pruner.write_traces(path, golden_traces())
        assert path.read_bytes() == (DATA / "trace.txt").read_bytes()
        assert pruner.read_traces(DATA / "trace.txt") == golden_traces()

    def test_report_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        harness.write_report(path, golden_report())
        assert path.read_bytes() == (DATA / "report.json").read_bytes()
        back = harness.read_report(DATA / "report.json")
        assert back == dataclasses.replace(golden_report(), timings={})

    def test_table_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "table.json"
        model_io.write_json(path, golden_table())
        assert path.read_bytes() == (DATA / "table.json").read_bytes()
        back = model_io.from_json(harness.ExperimentResult,
                                  model_io.load_json(DATA / "table.json"), "table.json")
        assert back == golden_table()
        assert harness.format_experiment_table(back) == (DATA / "table.txt").read_text()

    def test_table_keys_sorted_as_strings(self):
        text = (DATA / "table.json").read_text()
        assert text.index('"10"') < text.index('"2"')


class TestMalformedJson:
    def write(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def golden(self):
        return json.loads((DATA / "report.json").read_text())

    def check(self, path, match):
        with pytest.raises(model_io.FormatError, match=match) as excinfo:
            harness.read_report(path)
        message = one_line_error(excinfo)
        assert message.startswith(str(path))
        return message

    def test_not_json(self, tmp_path):
        self.check(self.write(tmp_path, "{not json"), "not JSON")
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00")
        self.check(path, "not JSON")

    def test_not_an_object(self, tmp_path):
        self.check(self.write(tmp_path, [1, 2]), "expected dict, got list")

    def test_missing_key(self, tmp_path):
        d = self.golden()
        del d["seed"]
        self.check(self.write(tmp_path, d), "missing key 'seed'")

    def test_missing_nested_key(self, tmp_path):
        d = self.golden()
        del d["layers"][1]["kept"]
        self.check(self.write(tmp_path, d), r"layers\[1\]: missing key 'kept'")

    def test_unknown_key(self, tmp_path):
        d = self.golden()
        d["timings"] = {"prune_s": 1.0}
        self.check(self.write(tmp_path, d), "unknown key 'timings'")

    @pytest.mark.parametrize("key, value", [("seed", "10"), ("seed", 1.5),
                                            ("seed", True), ("variant", 3),
                                            ("compression_ratio", "2.8"),
                                            ("accuracy_pruned", [0.3]),
                                            ("layers", {"kept": 1})])
    def test_wrong_type(self, tmp_path, key, value):
        d = self.golden()
        d[key] = value
        self.check(self.write(tmp_path, d), f"{key}: expected ")

    def test_wrong_type_in_table(self, tmp_path):
        d = json.loads((DATA / "table.json").read_text())
        d["baseline_accuracy"]["two"] = 0.5
        path = self.write(tmp_path, d)
        with pytest.raises(model_io.FormatError, match="baseline_accuracy") as excinfo:
            model_io.from_json(harness.ExperimentResult, model_io.load_json(path), path)
        one_line_error(excinfo)
        d = json.loads((DATA / "table.json").read_text())
        d["rows"][0]["seeds"] = [2, "10"]
        path = self.write(tmp_path, d)
        with pytest.raises(model_io.FormatError,
                           match=r"rows\[0\]: seeds\[1\]: expected int, got str '10'"):
            model_io.from_json(harness.ExperimentResult, model_io.load_json(path), path)

    def test_float_out_of_range(self, tmp_path):
        d = self.golden()
        d["compression_ratio"] = 10 ** 400
        self.check(self.write(tmp_path, d), "compression_ratio: 1000.* is out of range")

    def test_ints_read_as_floats(self, tmp_path):
        d = self.golden()
        d["accuracy_baseline"] = 1
        back = harness.read_report(self.write(tmp_path, d))
        assert back.accuracy_baseline == 1.0 and type(back.accuracy_baseline) is float


class TestMalformedTrace:
    def lines(self):
        return (DATA / "trace.txt").read_text().splitlines()

    def check(self, tmp_path, lines, match):
        path = tmp_path / "bad.trace"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(model_io.FormatError, match=match) as excinfo:
            pruner.read_traces(path)
        message = one_line_error(excinfo)
        assert message.startswith(str(path))
        return message

    def replace_cell(self, column, value, row=2):
        lines = self.lines()
        cells = lines[row - 1].split("\t")
        cells[lines[0].split("\t").index(column)] = value
        lines[row - 1] = "\t".join(cells)
        return lines

    @pytest.mark.parametrize("column, value", [
        ("budget", "x"), ("layer", "3.0"), ("lambda", "abc"), ("lambda", ""),
        ("support", "1,,5"), ("support", "1,a"), ("exhaustive", "2"),
        ("converged", "true"), ("residual_after", "-")])
    def test_unparsable_cell(self, tmp_path, column, value):
        self.check(tmp_path, self.replace_cell(column, value, row=3),
                   rf":3: {column}(\[\d\])?: expected ")

    def test_wrong_column_count(self, tmp_path):
        lines = self.lines()
        lines[2] += "\t1"
        self.check(tmp_path, lines, ":3: expected 16 columns, got 17")

    def test_kept_must_match_support(self, tmp_path):
        self.check(tmp_path, self.replace_cell("kept", "3"),
                   ":2: kept is 3, but the other fields give 2")

    def test_binary_file(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(model_io.FormatError, match="bad.trace") as excinfo:
            pruner.read_traces(path)
        one_line_error(excinfo)

    def test_empty_support_is_a_dash(self, tmp_path):
        path = tmp_path / "run.trace"
        row = dataclasses.replace(golden_traces()[0], support=())
        pruner.write_traces(path, [row])
        cells = dict(zip(*[line.split("\t") for line in path.read_text().splitlines()]))
        assert cells["support"] == "-" and cells["kept"] == "0"
        assert pruner.read_traces(path) == [row]
