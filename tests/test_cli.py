"""End-to-end command-line pipeline on a miniature dataset."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from par import cli
from par.cli import main
from par.config import (_MAY_BE_ZERO, TrainConfig, config_from_dict, load_config,
                        parse_config_text)
from par.errors import ConfigError
from par.model import ParModel
from par.trainer import Checkpoint

TINY_CONFIG = """\
# miniature run for pipeline tests
n = 2
m = 4
t = 4
themes = 4
items_per_theme = 12
true_dim = 8
pos_per_list = 2
user_themes = 3
train_pages = 48
test_pages = 12
d_x = 8
d_h = 8
d_a = 4
d_o = 8
d_r = 8
heads = 2
experts = 2
expert_hidden = 16,8
tower_hidden = 8
dense_hidden = 8
batch_size = 32
epochs = 2
learning_rate = 0.001
ablate_seeds = 1
"""


def _field_cases():
    """(key, source, value): a wrong type, 0, -1, and nan and inf for a float key.

    `source` says whether the value goes through a config file's text or a
    checkpoint header's dict; a str key's text is always a str. A list value
    is given its own id, such as `dense_hidden-dict-[8.0,4]`, so that a case's
    id does not depend on its position among all the cases.
    """
    def case(key, source, value):
        if isinstance(value, list):
            return pytest.param(key, source, value, id=f"{key}-{source}-{value!r}".replace(" ", ""))
        return key, source, value

    wrong = {int: [("text", "2.5"), ("dict", 2.0), ("dict", True)],
             float: [("text", "abc"), ("dict", "0.1"), ("dict", True)],
             tuple: [("text", "8.0,4"), ("dict", [8.0, 4]), ("dict", 8)],
             str: [("dict", 3)]}
    cases = []
    for f in dataclasses.fields(TrainConfig):
        kind = type(f.default)
        values = [0, -1] + ([math.nan, math.inf] if kind is float else [])
        spelled = [[v] if kind is tuple else v for v in values]
        cases += [case(f.name, source, value) for source, value in wrong[kind]]
        cases += [case(f.name, "text", str(v)) for v in values]
        cases += [case(f.name, "dict", v) for v in spelled]
    return cases


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    data = root / "data" / "pages"
    data.parent.mkdir()
    assert main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
    return root, config, data


class TestConfigFile:
    def test_parses_types(self):
        config = parse_config_text(TINY_CONFIG)
        assert config.n == 2
        assert config.expert_hidden == (16, 8)
        assert config.learning_rate == 0.001

    @pytest.mark.parametrize("line", ["not_a_key = 3", "dsa = true", "theme_mix = 0.5",
                                      "quality_weight_top = 1.5", "eta1 = 0.4", "eta2 = 0.5",
                                      "label_noise = 0.1", "ranker_hidden = 32",
                                      "ranker_lr = 0.01", "eval_seed = 90210",
                                      "sigma = 0.1", "ranker_epochs = 3"])
    def test_unknown_key_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config_text(line + "\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config_text("epochs = soon\n")

    @pytest.mark.parametrize("key, source, value", _field_cases())
    def test_every_key_takes_only_what_the_rule_allows(self, key, source, value):
        """A key in `_MAY_BE_ZERO` takes 0; any other case is a ConfigError naming its key."""
        def build():
            if source == "text":
                return parse_config_text(f"{key} = {value}\n")
            return config_from_dict({key: value})

        default = {f.name: f.default for f in dataclasses.fields(TrainConfig)}[key]
        if key in _MAY_BE_ZERO and value in (0, "0"):
            got = getattr(build(), key)
            assert got == 0 and type(got) is type(default)
            return
        with pytest.raises(ConfigError) as caught:
            build()
        assert re.search(rf"^{key} must be |key '{key}'|^unknown {key} ", str(caught.value)), \
            str(caught.value)

    @pytest.mark.parametrize("source", ["text", "dict"])
    def test_history_width_must_equal_candidate_width(self, source):
        with pytest.raises(ConfigError) as caught:
            if source == "text":
                parse_config_text("d_x = 8\nd_h = 4\n")
            else:
                config_from_dict({"d_x": 8, "d_h": 4})
        assert str(caught.value) == "d_h must equal d_x, got d_h=4 and d_x=8"

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^line 3: key 'epochs' repeats line 1$"):
            parse_config_text("epochs = 6\nbatch_size = 64\nepochs = 1\n")

    def test_repeated_key_single_line_error(self, workspace, tmp_path, capsys):
        root, config, data = workspace
        bad = tmp_path / "repeated.cfg"
        bad.write_text(TINY_CONFIG + "epochs = 1\n")
        capsys.readouterr()
        assert main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "x.ckpt")]) == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: ConfigError: line 26: key 'epochs' repeats line 23", err
        assert not (tmp_path / "x.ckpt").exists()

    def test_readme_configuration_names_every_key(self):
        """README's Configuration section names each config key, and no other."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"`([a-z][a-z0-9_]*)`", section))
        assert named == {f.name for f in dataclasses.fields(TrainConfig)}
        rule = [sentence for sentence in re.split(r"(?<=\.)\s+", section)
                if "may be 0" in sentence]
        assert len(rule) == 1, rule
        assert set(re.findall(r"`([a-z][a-z0-9_]*)`", rule[0])) == _MAY_BE_ZERO

    def test_comments_and_blanks_ignored(self):
        config = parse_config_text("# comment\n\nseed = 9\n")
        assert config.seed == 9

    def test_variant_key_builds_that_model(self):
        config = parse_config_text(TINY_CONFIG + "variant = PAR-SSA\n")
        assert config.variant_name() == "PAR-SSA"
        names = list(ParModel(config, config.build_layout(), config.seed).params)
        assert "emb.item" in names
        assert not any(name.startswith("ss.") for name in names)

    def test_unknown_variant_single_line_error(self, workspace, tmp_path, capsys):
        root, config, data = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + "variant = PAR-XYZ\n")
        capsys.readouterr()
        assert main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "x.ckpt")]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ConfigError: unknown variant 'PAR-XYZ'"), err
        assert "\n" not in err
        assert not (tmp_path / "x.ckpt").exists()


class TestGenData:
    def test_writes_three_files(self, workspace):
        root, config, data = workspace
        assert data.with_name("pages.train.jsonl").exists()
        assert data.with_name("pages.test.jsonl").exists()
        assert data.with_name("pages.catalog.json").exists()

    def test_page_counts(self, workspace):
        root, config, data = workspace
        train_lines = data.with_name("pages.train.jsonl").read_text().strip().split("\n")
        test_lines = data.with_name("pages.test.jsonl").read_text().strip().split("\n")
        assert len(train_lines) == 48
        assert len(test_lines) == 12

    def test_deterministic_bytes(self, workspace, tmp_path):
        root, config, data = workspace
        again = tmp_path / "pages"
        assert main(["gen-data", "--config", str(config), "--out", str(again)]) == 0
        for suffix in (".train.jsonl", ".test.jsonl", ".catalog.json"):
            a = data.with_name("pages" + suffix).read_bytes()
            b = again.with_name("pages" + suffix).read_bytes()
            assert a == b, suffix

    def test_record_fields(self, workspace):
        root, config, data = workspace
        line = data.with_name("pages.train.jsonl").read_text().split("\n")[0]
        record = json.loads(line)
        assert set(record) == {"user", "history", "lists"}
        for lst in record["lists"]:
            assert set(lst) == {"theme", "items", "rel", "init_order", "clicks", "probs"}


@pytest.fixture(scope="module")
def checkpoint(workspace):
    root, config, data = workspace
    out = root / "model.ckpt"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(out)]) == 0
    return out


class TestTrainEvalRerank:

    def test_train_writes_checkpoint(self, checkpoint):
        assert checkpoint.exists()

    def test_eval_writes_tables(self, workspace, checkpoint, monkeypatch):
        root, config, data = workspace
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = root / "report"
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--out", str(out)]) == 0
        csv = (root / "report.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == "system,utility,sctr,sctr_h1,sctr_h2,ndcg,map,seed,timestamp"
        systems = [line.split(",")[0] for line in lines[1:]]
        assert systems == ["INIT", "PAR"]
        payload = json.loads((root / "report.json").read_text())
        assert [row["system"] for row in payload] == ["INIT", "PAR"]

    def test_rerank_emits_permutations(self, workspace, checkpoint):
        root, config, data = workspace
        out = root / "perms.jsonl"
        assert main(["rerank", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 12
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"user", "permutations"}
            for perm in record["permutations"]:
                assert sorted(perm) == list(range(4))

    def test_train_deterministic(self, workspace, checkpoint):
        root, config, data = workspace
        out = root / "model2.ckpt"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == checkpoint.read_bytes()

    def test_eval_deterministic_tables(self, workspace, checkpoint, monkeypatch):
        root, config, data = workspace
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        for name in ("rep_a", "rep_b"):
            assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                         "--out", str(root / name)]) == 0
        assert (root / "rep_a.csv").read_bytes() == (root / "rep_b.csv").read_bytes()
        assert (root / "rep_a.json").read_bytes() == (root / "rep_b.json").read_bytes()


class TestGradcheckCommand:
    def test_passes_with_default_tiny_config(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "emb.item" in out


class TestAblateCommand:
    def test_two_variants_three_data_rows_per_seed(self, workspace, monkeypatch, capsys):
        root, config, data = workspace
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = root / "ablation"
        assert main(["ablate", "--config", str(config), "--data", str(data),
                     "--variants", "PAR-DN,PAR-MMoE", "--out", str(out)]) == 0
        csv_lines = (root / "ablation.csv").read_text().strip().split("\n")
        rows = [line.split(",") for line in csv_lines[1:]]
        data_rows = [r for r in rows if r[-2] not in ("mean", "std")]
        assert len(data_rows) == 3  # PAR + 2 variants, 1 seed each
        assert {r[0] for r in data_rows} == {"PAR", "PAR-DN", "PAR-MMoE"}
        agg_rows = [r for r in rows if r[-2] in ("mean", "std")]
        assert len(agg_rows) == 6

    def test_repeated_variant_trained_once(self, workspace, tmp_path, monkeypatch, capsys):
        root, config, data = workspace
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = tmp_path / "ablation"
        capsys.readouterr()
        assert main(["ablate", "--config", str(config), "--data", str(data),
                     "--variants", "PAR-DN,PAR-DN", "--out", str(out)]) == 0
        assert "(2 variants x 1 seeds)" in capsys.readouterr().out
        rows = [line.split(",") for line in
                (tmp_path / "ablation.csv").read_text().strip().split("\n")[1:]]
        assert sorted(r[0] for r in rows if r[-2] not in ("mean", "std")) == ["PAR", "PAR-DN"]
        aggregates = sorted(r[0] for r in rows if r[-2] in ("mean", "std"))
        assert aggregates == ["PAR", "PAR", "PAR-DN", "PAR-DN"]

    def test_identical_seed_identical_tables(self, workspace, monkeypatch):
        root, config, data = workspace
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        for name in ("abl_a", "abl_b"):
            assert main(["ablate", "--config", str(config), "--data", str(data),
                         "--variants", "PAR-DN", "--out", str(root / name)]) == 0
        assert (root / "abl_a.csv").read_bytes() == (root / "abl_b.csv").read_bytes()

    def test_diverging_variant_keeps_its_error_kind(self, workspace, tmp_path):
        root, config, data = workspace
        diverging = tmp_path / "diverging.cfg"
        diverging.write_text(TINY_CONFIG.replace("learning_rate = 0.001", "learning_rate = 1e300"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["ablate", "--config", str(diverging), "--data", str(data),
                             "--variants", "PAR-DN", "--out", str(tmp_path / "ablation")])
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert code == 1
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: NumericError: variant PAR (seed 0) failed: "), lines
        assert lines[0].endswith("at epoch 1, step 2"), lines
        assert not (tmp_path / "ablation.csv").exists()

    def test_unknown_variant_rejected(self, workspace, capsys):
        root, config, data = workspace
        code = main(["ablate", "--config", str(config), "--data", str(data),
                     "--variants", "PAR-XXL", "--out", str(root / "bad")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:")
        assert "\n" not in err.strip("\n") or err.count("\n") == 1

    def test_catalog_read_once(self, workspace, monkeypatch):
        root, config, data = workspace
        paths, load = [], cli.load_catalog
        monkeypatch.setattr(cli, "load_catalog", lambda path: paths.append(path) or load(path))
        # an unknown variant stops the command after the dataset is read
        assert main(["ablate", "--config", str(config), "--data", str(data),
                     "--variants", "PAR-XXL", "--out", str(root / "bad")]) == 1
        assert paths == [Path(str(data) + ".catalog.json")]


class TestErrorSurface:
    def test_missing_data_single_line_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "x.ckpt")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ConfigError:")
        assert "\n" not in err

    @staticmethod
    def _single_error_line(capsys, kind, names=""):
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {kind}:"), err
        assert "\n" not in err
        assert names in err, err

    def test_truncated_checkpoint_single_line_error(self, workspace, checkpoint, tmp_path,
                                                    capsys):
        root, config, data = workspace
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(checkpoint.read_bytes()[:-4])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(cut), "--data", str(data),
                     "--out", str(tmp_path / "report")]) == 1
        self._single_error_line(capsys, "ContractError")

    def test_missing_config_single_line_error(self, workspace, tmp_path, capsys):
        root, config, data = workspace
        missing = tmp_path / "none.cfg"
        capsys.readouterr()
        assert main(["train", "--config", str(missing), "--data", str(data),
                     "--out", str(tmp_path / "x.ckpt")]) == 1
        self._single_error_line(capsys, "ConfigError", str(missing))

    def test_unwritable_dataset_single_line_error(self, workspace, tmp_path, capsys):
        root, config, data = workspace
        capsys.readouterr()
        assert main(["gen-data", "--config", str(config),
                     "--out", str(tmp_path / "nodir" / "base")]) == 1
        self._single_error_line(capsys, "ConfigError", str(tmp_path / "nodir"))

    def test_pos_per_list_above_the_shortest_list_single_line_error(self, tmp_path, capsys):
        config = tmp_path / "fshape.cfg"
        config.write_text(TINY_CONFIG.replace("n = 2\nm = 4\n", "n = 5\nm = 10\n")
                          .replace("\nthemes = 4\n", "\nthemes = 6\n")
                          .replace("pos_per_list = 2", "pos_per_list = 5")
                          + "layout = fshape\nv_len = 4\nh_len = 10\n")
        capsys.readouterr()
        assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "base")]) == 1
        self._single_error_line(capsys, "ConfigError",
                                "pos_per_list 5 exceeds the shortest list's 4 items")
        assert not list(tmp_path.glob("base.*"))

    @pytest.mark.parametrize("line, message", [
        ("expert_hidden = -8,4", "expert_hidden must be positive, got (-8, 4)"),
        ("epochs = -3", "epochs must be >= 0, got -3"),
        ("tower_hidden = 0", "tower_hidden must be positive, got (0,)"),
        ("learning_rate = nan", "learning_rate must be finite, got nan"),
    ])
    def test_invalid_config_value_single_line_error(self, workspace, tmp_path, capsys, line,
                                                    message):
        root, config, data = workspace
        bad = tmp_path / "bad.cfg"
        key = line.split(" = ")[0]  # a key TINY_CONFIG sets takes the new value in place
        kept = [row for row in TINY_CONFIG.splitlines() if not row.startswith(key + " = ")]
        bad.write_text("\n".join(kept + [line]) + "\n")
        capsys.readouterr()
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "base")]) == 1
        self._single_error_line(capsys, "ConfigError", message)
        assert main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "x.ckpt")]) == 1
        self._single_error_line(capsys, "ConfigError", message)
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    @pytest.mark.parametrize("edit, message", [
        ({"n": 2.0}, "n must be int, got 2.0"),
        ({"expert_hidden": [16.0, 8]}, "expert_hidden must be a list of int, got [16.0, 8]"),
    ], ids=["float-n", "float-width"])
    def test_mistyped_checkpoint_header_single_line_error(
            self, workspace, checkpoint, tmp_path, capsys, command, edit, message):
        root, config, data = workspace
        stale = tmp_path / "typed.ckpt"
        stale.write_bytes(_edit_header(checkpoint.read_bytes(),
                                       lambda header: header["config"].update(edit)))
        capsys.readouterr()
        assert main([command, "--checkpoint", str(stale), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
        self._single_error_line(capsys, "ConfigError", message)
        assert list(tmp_path.iterdir()) == [stale]

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_unreadable_pages_single_line_error(self, workspace, checkpoint, tmp_path, capsys,
                                                command):
        root, config, data = workspace
        base = _copy_dataset(data, tmp_path)
        pages = base.with_name("pages.test.jsonl")
        pages.unlink()
        pages.mkdir()
        capsys.readouterr()
        assert main([command, "--checkpoint", str(checkpoint), "--data", str(base),
                     "--out", str(tmp_path / "out")]) == 1
        self._single_error_line(capsys, "ConfigError", f"cannot read {pages}: ")
        assert not list(tmp_path.glob("out*"))

    def test_undecodable_config_single_line_error(self, workspace, tmp_path, capsys):
        root, config, data = workspace
        bad = tmp_path / "utf16.cfg"
        bad.write_bytes(b"\xff\xfe" + TINY_CONFIG.encode("utf-16-le"))
        capsys.readouterr()
        assert main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "x.ckpt")]) == 1
        self._single_error_line(capsys, "ConfigError", f"{bad}: ")
        assert list(tmp_path.iterdir()) == [bad]

    def test_unwritable_checkpoint_single_line_error(self, workspace, tmp_path, capsys):
        root, config, data = workspace
        out = tmp_path / "nodir" / "x.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out)]) == 1
        self._single_error_line(capsys, "ConfigError", str(out))
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_checkpoint_without_examination_table_single_line_error(
            self, workspace, checkpoint, tmp_path, capsys, command):
        root, config, data = workspace
        old = Checkpoint.load(checkpoint)
        del old.tensors["exam.logit"]
        stale = tmp_path / "old.ckpt"
        old.save(stale)
        capsys.readouterr()
        assert main([command, "--checkpoint", str(stale), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
        self._single_error_line(capsys, "ContractError", "'exam.logit'")

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_checkpoint_with_an_unstacked_shared_head_single_line_error(
            self, workspace, tmp_path, capsys, command):
        """A PAR-MMoE checkpoint from before its head became a one-expert stack is refused."""
        root, config, data = workspace
        cfg = parse_config_text(TINY_CONFIG + "variant = PAR-MMoE\n")
        model = ParModel(cfg, cfg.build_layout(), cfg.seed)
        tensors = {name: p.values[0] if name.startswith("head.") else p.values
                   for name, p in model.params.items()}
        stale = tmp_path / "old.ckpt"
        Checkpoint(config=cfg, epoch=1, loss_history=[0.5], tensors=tensors).save(stale)
        capsys.readouterr()
        assert main([command, "--checkpoint", str(stale), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: ContractError: stored tensor 'head.w0' has "
                                           "shape (32, 16), model expects (1, 32, 16)\n")

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_checkpoint_with_its_own_history_width_single_line_error(
            self, workspace, checkpoint, tmp_path, capsys, command):
        """A header whose `d_h` differs from its `d_x` is refused, as a config file is."""
        root, config, data = workspace
        stale = tmp_path / "old.ckpt"
        stale.write_bytes(_edit_header(checkpoint.read_bytes(),
                                       lambda header: header["config"].update(d_h=4)))
        capsys.readouterr()
        assert main([command, "--checkpoint", str(stale), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: ConfigError: d_h must equal d_x, got d_h=4 and d_x=8\n"

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_checkpoint_with_removed_config_keys_single_line_error(
            self, workspace, checkpoint, tmp_path, capsys, command):
        root, config, data = workspace
        removed = {"dsa": False, "hdsa": False, "scale": False, "ssa": False, "dn": False,
                   "mmoe": False, "theme_mix": 0.0, "quality_weight_top": 1.0,
                   "quality_weight_bottom": 1.0, "eta1": 0.4, "eta2": 0.5, "label_noise": 0.1,
                   "ranker_hidden": 32, "ranker_lr": 0.01, "eval_seed": 90210}
        stale = tmp_path / "old.ckpt"
        stale.write_bytes(_edit_header(checkpoint.read_bytes(),
                                       lambda header: header["config"].update(removed)))
        capsys.readouterr()
        assert main([command, "--checkpoint", str(stale), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
        self._single_error_line(capsys, "ConfigError", f"unknown config keys: {sorted(removed)}")

    def test_checkpoint_naming_sigma_single_line_error(self, workspace, checkpoint, tmp_path,
                                                       capsys):
        """A header written while `sigma` and `ranker_epochs` were config keys is refused."""
        root, config, data = workspace
        stale = tmp_path / "old.ckpt"
        stale.write_bytes(_edit_header(
            checkpoint.read_bytes(),
            lambda header: header["config"].update(sigma=0.1, ranker_epochs=1)))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(stale), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: ConfigError: unknown config keys: ['ranker_epochs', 'sigma']\n"

    @pytest.mark.parametrize("command,seed", [("gen-data", -1), ("train", -2), ("eval", -5)])
    def test_negative_seed_single_line_error(self, workspace, checkpoint, tmp_path, capsys,
                                             command, seed):
        root, config, data = workspace
        inputs = {"gen-data": ["--config", str(config)],
                  "train": ["--config", str(config), "--data", str(data)],
                  "eval": ["--checkpoint", str(checkpoint), "--data", str(data)]}[command]
        capsys.readouterr()
        assert main([command, *inputs, "--seed", str(seed),
                     "--out", str(tmp_path / "out")]) == 1
        name = "eval_seed" if command == "eval" else "seed"
        self._single_error_line(capsys, "ConfigError", f"{name} must be >= 0, got {seed}")
        assert not list(tmp_path.iterdir())

    def test_negative_seed_in_config_or_checkpoint_single_line_error(
            self, workspace, checkpoint, tmp_path, capsys):
        root, config, data = workspace
        negative = tmp_path / "negative.cfg"
        negative.write_text(TINY_CONFIG + "seed = -3\n")
        stale = tmp_path / "negative.ckpt"
        stale.write_bytes(_edit_header(checkpoint.read_bytes(),
                                       lambda header: header["config"].update(seed=-3)))
        capsys.readouterr()
        assert main(["gen-data", "--config", str(negative), "--out", str(tmp_path / "b")]) == 1
        self._single_error_line(capsys, "ConfigError", "seed must be >= 0, got -3")
        assert main(["rerank", "--checkpoint", str(stale), "--data", str(data),
                     "--out", str(tmp_path / "perms.jsonl")]) == 1
        self._single_error_line(capsys, "ConfigError", "seed must be >= 0, got -3")

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_missing_checkpoint_single_line_error(self, workspace, tmp_path, capsys, command):
        root, config, data = workspace
        capsys.readouterr()
        assert main([command, "--checkpoint", str(tmp_path / "none.ckpt"), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
        self._single_error_line(capsys, "ConfigError")


def _copy_dataset(data: Path, dest: Path) -> Path:
    """Copy of the dataset files at base path `data` under directory `dest`."""
    for suffix in (".train.jsonl", ".test.jsonl", ".catalog.json"):
        shutil.copy(data.with_name(data.name + suffix), dest / ("pages" + suffix))
    return dest / "pages"


def _run_stderr(command: str, checkpoint: Path, base: Path, out: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--checkpoint", str(checkpoint), "--data", str(base),
                     "--out", str(out)])
    return code, err.getvalue()


def _edit_last_test_page(base: Path, edit) -> int:
    """Apply `edit` to the last page of the copied test JSONL; returns its line number."""
    test = base.with_name("pages.test.jsonl")
    lines = test.read_text().splitlines()
    page = json.loads(lines[-1])
    edit(page)
    lines[-1] = json.dumps(page)
    test.write_text("\n".join(lines) + "\n")
    return len(lines)


def _flip(blob: bytes, offset: int, bit: int) -> bytes:
    return blob[:offset] + bytes([blob[offset] ^ (1 << bit)]) + blob[offset + 1:]


def _edit_header(blob: bytes, edit, payload: bytes | None = None) -> bytes:
    """Checkpoint `blob` with `edit` applied to its JSON header, and `payload` if given."""
    (head_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + head_len])
    edit(header)
    head = json.dumps(header).encode()
    rest = blob[12 + head_len:] if payload is None else payload
    return blob[:8] + struct.pack("<I", len(head)) + head + rest


def _emb_item_exponent_flip(blob: bytes) -> bytes:
    """`blob` with the top exponent bit of its first `emb.item` value flipped.

    The value goes from about -0.035 to about -5e306: finite in float64,
    beyond the float32 range.
    """
    (head_len,) = struct.unpack("<I", blob[8:12])
    offset = 12 + head_len
    for meta in json.loads(blob[12:offset])["tensors"]:
        if meta["name"] == "emb.item":
            return _flip(blob, offset + 7, 6)
        offset += 8 * math.prod(meta["shape"])
    raise AssertionError("checkpoint holds no emb.item")


def _run_lines(command: str, checkpoint: Path, base: Path, out: Path) -> tuple[int, list[str]]:
    """Exit code and every stderr line of one command, warnings included."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run_stderr(command, checkpoint, base, out)
    return code, err.splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]


class TestCheckpointFuzz:
    """Corrupted checkpoints through `eval` and `rerank`: exit 0, or one error line."""

    @staticmethod
    def cases(blob: bytes) -> dict[str, bytes]:
        rng = np.random.default_rng(20231)
        (head_len,) = struct.unpack("<I", blob[8:12])
        payload = 12 + head_len
        cuts = {0, 4, 8, 11, 12, 13, payload - 1, payload, payload + 1, len(blob) - 8,
                len(blob) - 1}
        cuts |= set(rng.integers(0, len(blob), size=20).tolist())
        cases = {f"cut {n}": blob[:n] for n in sorted(cuts)}
        for lo, hi in ((0, payload), (payload, len(blob))):
            for offset, bit in zip(rng.integers(lo, hi, size=75), rng.integers(0, 8, size=75)):
                cases[f"flip byte {offset} bit {bit}"] = _flip(blob, int(offset), int(bit))
        cases["emb.item exponent"] = _emb_item_exponent_flip(blob)
        return cases

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_exit_zero_or_one_error_line(self, workspace, checkpoint, tmp_path, command):
        root, config, data = workspace
        bad = []
        for name, blob in self.cases(checkpoint.read_bytes()).items():
            corrupt = tmp_path / "corrupt.ckpt"
            corrupt.write_bytes(blob)
            code, lines = _run_lines(command, corrupt, data, tmp_path / "out")
            if not (code == 0 and not lines
                    or code == 1 and len(lines) == 1 and lines[0].startswith("error: ")):
                bad.append((name, code, lines))
        assert not bad, bad

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_value_beyond_float32_range_is_named(self, workspace, checkpoint, tmp_path,
                                                 command):
        root, config, data = workspace
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(_emb_item_exponent_flip(checkpoint.read_bytes()))
        code, lines = _run_lines(command, corrupt, data, tmp_path / "out")
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ContractError:"), lines
        assert "'emb.item'" in lines[0] and "float32" in lines[0]


    @pytest.mark.parametrize("command", ["eval", "rerank"])
    @pytest.mark.parametrize("shape, payload_bytes", [([-1, -1], 8), ([2.5], 20), (["4"], 32)],
                             ids=["negative", "fractional", "string"])
    def test_malformed_tensor_shape_is_one_error_line(self, workspace, checkpoint, tmp_path,
                                                      command, shape, payload_bytes):
        root, config, data = workspace

        def one_tensor(header):
            header["tensors"] = [{"name": "emb.item", "shape": shape}]

        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(_edit_header(checkpoint.read_bytes(), one_tensor,
                                         bytes(payload_bytes)))
        code, lines = _run_lines(command, corrupt, data, tmp_path / "out")
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ContractError:"), lines


class TestFloatingPointFaults:
    def test_overflow_inside_a_command_is_one_error_line(self, workspace, checkpoint,
                                                         tmp_path, monkeypatch):
        root, config, data = workspace

        def overflowing(*args, **kwargs):
            return np.array([1e308]) * 10.0

        monkeypatch.setattr(cli, "evaluate", overflowing)
        code, lines = _run_lines("eval", checkpoint, data, tmp_path / "report")
        assert code == 1
        assert lines == ["error: NumericError: eval: overflow encountered in multiply"]

    def test_invalid_value_inside_a_command_is_one_error_line(self, workspace, checkpoint,
                                                              tmp_path, monkeypatch):
        root, config, data = workspace

        def invalid(*args, **kwargs):
            return np.array([np.inf]) - np.inf

        monkeypatch.setattr(cli, "evaluate", invalid)
        code, lines = _run_lines("eval", checkpoint, data, tmp_path / "report")
        assert code == 1
        assert lines == ["error: NumericError: eval: invalid value encountered in subtract"]

    def test_diverging_training_names_its_epoch_and_step(self, workspace, tmp_path):
        root, config, data = workspace
        diverging = tmp_path / "diverging.cfg"
        diverging.write_text(TINY_CONFIG.replace("learning_rate = 0.001", "learning_rate = 1e300"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["train", "--config", str(diverging), "--data", str(data),
                             "--out", str(tmp_path / "model.ckpt")])
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: NumericError: "), lines
        assert lines[0].endswith("at epoch 1, step 2"), lines
        assert not (tmp_path / "model.ckpt").exists()


class TestMalformedPages:
    def test_missing_history_on_last_page(self, workspace, checkpoint, tmp_path):
        root, config, data = workspace
        base = _copy_dataset(data, tmp_path)
        line = _edit_last_test_page(base, lambda page: page.pop("history"))
        code, err = _run_stderr("eval", checkpoint, base, tmp_path / "report")
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
        assert f"page line {line}: missing key 'history'" in err

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_item_outside_catalog_on_last_page(self, workspace, checkpoint, tmp_path,
                                               command):
        root, config, data = workspace
        base = _copy_dataset(data, tmp_path)

        def foreign_item(page):
            page["lists"][0]["items"][0] = 10_000

        line = _edit_last_test_page(base, foreign_item)
        code, err = _run_stderr(command, checkpoint, base, tmp_path / "out")
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
        assert f"page {line - 1} list 0 holds item ids outside" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("field, value", [("clicks", 7), ("rel", -3)])
    def test_label_outside_zero_one(self, workspace, checkpoint, tmp_path, command, field,
                                    value):
        root, config, data = workspace
        base = _copy_dataset(data, tmp_path)
        split = base.with_name(f"pages.{'train' if command == 'train' else 'test'}.jsonl")
        lines = split.read_text().splitlines()
        page = json.loads(lines[3])
        page["lists"][1][field][2] = value
        lines[3] = json.dumps(page)
        split.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            if command == "train":
                code = main(["train", "--config", str(config), "--data", str(base),
                             "--out", str(tmp_path / "x.ckpt")])
            else:
                code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(base),
                             "--out", str(tmp_path / "report")])
        err = err.getvalue()
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
        assert "page 3 list 1: rel and clicks must be 0 or 1" in err, err
        assert f"{value}" in err
        assert not (tmp_path / "x.ckpt").exists()

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_fuzzed_line_single_error(self, workspace, checkpoint, data):
        root, config, base_path = workspace
        lines = base_path.with_name(base_path.name + ".test.jsonl").read_text().splitlines()
        k = data.draw(st.integers(0, len(lines) - 1), label="line")
        page = json.loads(lines[k])
        if data.draw(st.booleans(), label="delete a key"):
            owners = [page] + page["lists"]
            owner = data.draw(st.sampled_from(owners), label="record")
            del owner[data.draw(st.sampled_from(sorted(owner)), label="key")]
            lines[k] = json.dumps(page)
        else:
            lines[k] = lines[k][:data.draw(st.integers(1, len(lines[k]) - 1), label="cut")]
        with tempfile.TemporaryDirectory() as tmp:
            base = _copy_dataset(base_path, Path(tmp))
            base.with_name("pages.test.jsonl").write_text("\n".join(lines) + "\n")
            code, err = _run_stderr("eval", checkpoint, base, Path(tmp) / "report")
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
        assert "Traceback" not in err
