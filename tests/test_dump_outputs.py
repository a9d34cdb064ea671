"""scripts/dump_outputs.py, which writes the outputs a refactor must keep
byte-identical: its sections are deterministic.  Two sections are run:
the cheapest, ``tangent``, twice, with the model rebuilt in between, and
``kernel`` for seed 1, against its pinned digest."""
import hashlib
import importlib.util
from pathlib import Path

import delpezzo5
import delpezzo5.cli  # noqa: F401  (the sections run the command line)

ROOT = Path(__file__).resolve().parent.parent


def load_dump_outputs():
    """scripts/dump_outputs.py as a module, without putting scripts on the path."""
    spec = importlib.util.spec_from_file_location(
        "dump_outputs", ROOT / "scripts" / "dump_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DUMP = load_dump_outputs()


def test_sections_cover_the_identical_outputs():
    assert list(DUMP.SECTIONS) == ["census", "suite", "fixed", "residual", "tangent", "kernel"]


def test_tangent_section_is_deterministic():
    first = DUMP.SECTIONS["tangent"](delpezzo5)
    delpezzo5.dp5.build_model.cache_clear()
    again = DUMP.SECTIONS["tangent"](delpezzo5)
    assert first == again
    # one line per catalogued curve, with its relative and ambient dimension
    lines = first.splitlines()
    assert len(lines) == 48
    assert sum(line.startswith("degree 4 dims [8, 31] ") for line in lines) == 30


# The kernel section for seed 1 (288 cases); any change to a reduced
# basis, Hilbert value or Hom dimension of `kernel-random` changes it.
KERNEL_SEED_1_LINES = 288
KERNEL_SEED_1_SHA256 = "492128fd2e90d9b55642d92f52a4a2246d4cbd5f448bd4b072902576613c259c"


def test_kernel_section_is_pinned(monkeypatch):
    monkeypatch.setattr(DUMP, "KERNEL_SEEDS", (1,))
    text = DUMP.kernel(delpezzo5)
    assert len(text.splitlines()) == KERNEL_SEED_1_LINES
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == KERNEL_SEED_1_SHA256
