import pytest

from tangoseg import Corpus, build_table, parse_annotation, parse_flat

FIGURE_GOLD = "[[data][base]][system]"

# prediction -> (word prec errors, word recall errors, morpheme prec errors,
#                morpheme recall errors, crossing, morpheme-dividing)
FIGURE_ROWS = {
    "|database|system|": (0, 0, 1, 2, 0, 0),
    "|data|base|system|": (2, 1, 0, 0, 0, 0),
    "|data|basesystem|": (2, 2, 1, 2, 1, 0),
    "|database|sys|tem|": (2, 1, 3, 3, 0, 2),
}


@pytest.fixture
def figure_gold():
    return parse_annotation(FIGURE_GOLD)


@pytest.fixture
def figure_pairs(figure_gold):
    return [(parse_flat(pred), figure_gold, expect) for pred, expect in FIGURE_ROWS.items()]


@pytest.fixture(scope="session")
def toy_table():
    """Counts over nine repetitions each of ABCD and WXYZ as separate lines."""
    corpus = Corpus(["ABCD"] * 9 + ["WXYZ"] * 9)
    return build_table(corpus, {2, 3, 4, 5, 6})


@pytest.fixture
def constructions(monkeypatch):
    """constructions(cls) counts the objects of cls built from then on: the
    returned list gains each one as its __post_init__ runs, or its __init__
    for a class that is not a validating dataclass."""

    def count(cls):
        built = []
        hook = "__post_init__" if hasattr(cls, "__post_init__") else "__init__"
        original = getattr(cls, hook)

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(cls, hook, counting)
        return built

    return count
