"""Golden bytes: a tiny config's generated dataset, trained checkpoint and
evaluation report, and the desk config's generated dataset.

Generation and training run in float64 in a fixed operation order, so these
files are byte-identical from run to run and across refactors that keep that
order. A change that moves any of these hashes changes what the program
computes; if that is intended, say so and record the new hashes.

The hashes also depend on the BLAS behind NumPy: matrix products are BLAS
calls, and the kernel (and with it the rounding) is chosen at run time for
the CPU. They were recorded with NumPy 2.4.6 on OpenBLAS 0.3.31
(DYNAMIC_ARCH) on a 2-vCPU Intel Xeon (x86-64). On another BLAS build or CPU
family a moved hash, most likely the checkpoint's, does not by itself mean
the program changed: re-record the hashes there at a known-good commit and
compare against those.

The checkpoint's header holds the config as key/value pairs, so renaming or
deleting a config key moves the checkpoint's file hash. Its tensor payload,
the bytes after the header, has a hash of its own, which only a change to
the trained values moves. The report tables are written with
SOURCE_DATE_EPOCH set, so their timestamp column is fixed.
"""

import hashlib
import struct
from pathlib import Path

import pytest

from par.cli import main
from par.config import load_config, parse_config_text
from par.data_oracle import build_dataset, pages_to_jsonl

GOLDEN_CONFIG = """\
n = 2
m = 3
t = 3
themes = 3
items_per_theme = 8
true_dim = 4
pos_per_list = 2
user_themes = 2
train_pages = 24
test_pages = 6
d_x = 4
d_h = 4
d_a = 4
d_o = 4
d_r = 4
heads = 2
experts = 2
expert_hidden = 8,4
tower_hidden = 4
dense_hidden = 4
batch_size = 8
epochs = 2
learning_rate = 0.001
"""

GOLDEN_SHA256 = {
    "pages.train.jsonl":
        "10f764f00937c9c8d9cd947f6ecac04e25bfb8b369bdbcf1a735f2d71e71cc79",
    "pages.test.jsonl":
        "21dd95150854c8c24744a872fa08e9bb916304272a0777cf2d2bd4cc6d3c27b8",
    "pages.catalog.json":
        "b91b8672a519e8e1fbe651fda8167e9906d8ac6ad496e7a55bac2e5304a48ae6",
    "model.ckpt":
        "7aa726cdc9f4d7be31722f91dbdcc574d52f97e30e271c1e7a4dba82ed6162dc",
    "report.csv":
        "28c8faf941c16be23e985f5f70718dfa7fb8eeb8d88b46ebefa38e178dc001df",
    "report.json":
        "6600ab3ec47445d50527f5bd8c38092cb247768fc6a60b94c4a177f80803539d",
}

GOLDEN_PAYLOAD_SHA256 = "abd7775dea6a2c3455a706bedb0b2fd5432dd4e8314683f7118ebbf83c33fb9c"

# configs/desk.cfg, seed 0: catalog JSON, then the train and the test JSONL
DESK_DATASET_SHA256 = "42930acd958bb2eade1a293baa39e1b84a52c283955799f4687f927ca09ea989"

# GOLDEN_CONFIG on an F-shape page of list lengths (3, 5, 5), hashed as the desk dataset
FSHAPE_CONFIG = """\
layout = fshape
v_len = 3
h_count = 2
h_len = 5
n = 3
m = 5
""" + GOLDEN_CONFIG.split("\n", 2)[2]
FSHAPE_DATASET_SHA256 = "f27777ab8dc996bd73dfc30680c423a9cfd693ce0cfe2f88df9ac53efb8ccc4a"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = root / "golden.cfg"
    config.write_text(GOLDEN_CONFIG)
    assert main(["gen-data", "--config", str(config), "--out", str(root / "pages")]) == 0
    assert main(["train", "--config", str(config), "--data", str(root / "pages"),
                 "--out", str(root / "model.ckpt")]) == 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("SOURCE_DATE_EPOCH", "0")
        assert main(["eval", "--checkpoint", str(root / "model.ckpt"),
                     "--data", str(root / "pages"), "--out", str(root / "report")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_file_bytes_match_golden_hash(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name], name


def test_checkpoint_payload_matches_golden_hash(outputs):
    blob = (outputs / "model.ckpt").read_bytes()
    (head_len,) = struct.unpack("<I", blob[8:12])
    assert hashlib.sha256(blob[12 + head_len:]).hexdigest() == GOLDEN_PAYLOAD_SHA256


def dataset_sha256(config) -> str:
    """sha256 over the catalog JSON, then the train and the test JSONL."""
    catalog, train, test = build_dataset(config)
    digest = hashlib.sha256()
    for part in (catalog.to_json(), pages_to_jsonl(train), pages_to_jsonl(test)):
        digest.update(part.encode())
    return digest.hexdigest()


def test_desk_dataset_matches_golden_hash():
    """The desk world at full size: every stream's draws and every batched pass."""
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "desk.cfg")
    assert dataset_sha256(config) == DESK_DATASET_SHA256


def test_fshape_dataset_matches_golden_hash():
    """Ragged lists: the padding slots of the generated, ranked and labelled grids."""
    assert dataset_sha256(parse_config_text(FSHAPE_CONFIG)) == FSHAPE_DATASET_SHA256
