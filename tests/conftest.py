import contextlib
import pathlib

import pytest

from dftmc import engine, parse, to_fault_tree

REPO = pathlib.Path(__file__).resolve().parent.parent
TREES = REPO / "trees"

OVERLAP_DFT = (TREES / "pand_overlap.dft").read_text()
STATIC_OR2_DFT = (TREES / "static_or2.dft").read_text()

# TOP can never fire: the pand needs the seq output (x + y) to come before
# x itself, which requires y <= 0.  Used to exercise search failure.
IMPOSSIBLE_DFT = """\
dft 1
mission_time 1.0
be X exp mttf=5.0
be Y exp mttf=5.0
gate S seq X Y
gate TOP pand S X
top TOP
"""


@contextlib.contextmanager
def worker_count(k):
    """Runs inside use ``k`` workers, capped at the block count.

    ``None`` keeps the engine's automatic rule, every available core.  This
    is how thread counts vary whatever the machine's core count.
    """
    with pytest.MonkeyPatch.context() as m:
        if k is not None:
            m.setattr(engine, "_worker_count", lambda n_blocks: min(k, n_blocks))
        yield


@contextlib.contextmanager
def fixed_d(d):
    """Runs inside skip the d search and use the reference model at ``d``.

    The search's stand-in returns no trace, as a run that never searched.
    """
    with pytest.MonkeyPatch.context() as m:
        m.setattr(
            engine,
            "select_reference",
            lambda tree, config: (engine.build_reference_model(tree, d, config.mission_time), None),
        )
        yield


@pytest.fixture(scope="session")
def overlap_doc():
    return parse(OVERLAP_DFT)


@pytest.fixture(scope="session")
def overlap_tree(overlap_doc):
    return to_fault_tree(overlap_doc)


@pytest.fixture(scope="session")
def static_or2_tree():
    return to_fault_tree(parse(STATIC_OR2_DFT))


@pytest.fixture(scope="session")
def impossible_tree():
    return to_fault_tree(parse(IMPOSSIBLE_DFT))


@pytest.fixture()
def overlap_path(tmp_path):
    p = tmp_path / "pand_overlap.dft"
    p.write_text(OVERLAP_DFT)
    return p
