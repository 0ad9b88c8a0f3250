import pytest
from hypothesis import strategies as st

from hnnkit import BsOracle, HnnWord, make_bs, make_zd, tree
from hnnkit.bs import BsParams

FUZZ_GROUPS = [(2, 3), (3, 2), (2, -2), (2, 2)]


class ProtocolBs(BsOracle):
    """BS(m, n) with nothing overridden: as a subclass of ``BsOracle`` it
    runs the calculus's protocol loops, through the oracle's methods, where
    ``BsOracle`` itself runs its integer kernels."""


def protocol_bs(m, n):
    return ProtocolBs(BsParams(m, n))


@pytest.fixture(scope="session")
def bs23():
    return make_bs(2, 3)


@pytest.fixture(scope="session")
def bs22():
    return make_bs(2, 2)


@pytest.fixture(scope="session")
def bs2m2():
    return make_bs(2, -2)


@pytest.fixture(scope="session")
def zd_fib():
    return make_zd([[2, 1], [1, 1]])


def bs_word_strategy(oracle, max_syllables=4, max_exp=9):
    pair = st.tuples(st.sampled_from([1, -1]), st.integers(-max_exp, max_exp))
    return st.builds(
        lambda head, tail: HnnWord(oracle, head, tuple(tail)),
        st.integers(-max_exp, max_exp),
        st.lists(pair, max_size=max_syllables),
    )


def bs_oracles_strategy():
    return st.sampled_from([make_bs(m, n) for m, n in FUZZ_GROUPS])


@st.composite
def oracle_and_words(draw, count=1, max_syllables=4):
    oracle = draw(bs_oracles_strategy())
    words = tuple(draw(bs_word_strategy(oracle, max_syllables)) for _ in range(count))
    return (oracle, *words)


def count_cells(monkeypatch, cap=5000):
    """Count the cells built, at the base vertex and by ``_child``, and fail
    the test past ``cap`` of them, or past ``cap`` levels of the class walk,
    so that a broken refusal stops after a few thousand vertices instead of
    running on to the oversized request.  Returns the list of cells' steps."""
    built = []

    def counted(real):
        def build(*args):
            built.append(args[-1])
            if len(built) > cap:
                pytest.fail("an oversized walk was enumerated")
            return real(*args)

        return build

    real_levels = tree._class_levels

    def capped(*args):
        children, levels = real_levels(*args)

        def guarded():
            for i, level in enumerate(levels):
                if i > cap:
                    pytest.fail("an oversized walk was counted")
                yield level

        return children, guarded()

    monkeypatch.setattr(tree, "_child", counted(tree._child))
    monkeypatch.setattr(tree, "base_vertex", counted(tree.base_vertex))
    monkeypatch.setattr(tree, "_class_levels", capped)
    return built
