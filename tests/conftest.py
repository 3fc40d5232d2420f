import base64

import numpy as np
import pytest

from rulex.core import Document, build_vocab


@pytest.fixture
def pair_vocab():
    """Two base relations plus their inverses: ids 0..3."""
    return build_vocab(["a", "b"])


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_doc(atoms, num_relations, n_entities=None, doc_id="d", gold=()):
    if n_entities is None:
        n_entities = 1 + max((max(h, t) for h, _, t in atoms), default=0)
    return Document(doc_id, [f"e{i}" for i in range(n_entities)], dict(atoms), gold,
                    num_relations=num_relations)


def random_doc(rng, num_relations, max_entities=6, density=0.25):
    n = int(rng.integers(2, max_entities + 1))
    atoms = {}
    for h in range(n):
        for t in range(n):
            for r in range(num_relations):
                if rng.random() < density:
                    atoms[(h, r, t)] = float(rng.random())
    return Document("rand", [f"e{i}" for i in range(n)], atoms, num_relations=num_relations)


# The little-endian dtype of each array of generator.json's count block.
COUNT_DTYPES = {"contexts": "<i4", "nnz": "<i4", "tokens": "<i4", "values": "<f8"}


def count_arrays(obj):
    return {name: np.frombuffer(base64.b64decode(obj["counts"][name]), dtype=dtype).copy()
            for name, dtype in COUNT_DTYPES.items()}


def set_count_arrays(obj, arrays):
    obj["counts"] = {name: base64.b64encode(np.asarray(array, dtype=COUNT_DTYPES[name]).tobytes()).decode()
                     for name, array in arrays.items()}


def dense_counts(model):
    """Each stored count context of a ``RuleGenerator`` as a dense row of ``size + 1`` floats.

    Keyed by (head, context tuple) in ``generator.json``'s order, and read
    from ``model.to_json()``: the one reader of the counts in the tests.
    """
    arrays = count_arrays(model.to_json())
    rows = {}
    ends = np.cumsum(arrays["nnz"]).tolist()
    for row, start, end in zip(arrays["contexts"].reshape(-1, model.max_len + 1).tolist(), [0] + ends, ends):
        vec = np.zeros(model.vocab.size + 1)
        vec[arrays["tokens"][start:end]] = arrays["values"][start:end]
        rows[row[0], tuple(token for token in row[1:] if token >= 0)] = vec
    return rows


def with_counts(model, rows):
    """A generator with ``model``'s settings whose counts are exactly ``rows``, as ``dense_counts`` gives them."""
    obj = model.to_json()
    nonzero = [np.flatnonzero(vec) for vec in rows.values()]
    set_count_arrays(obj, {
        "contexts": [[head, *ctx] + [-1] * (model.max_len - len(ctx)) for head, ctx in rows],
        "nnz": [len(tokens) for tokens in nonzero],
        "tokens": np.concatenate([np.zeros(0, dtype=int), *nonzero]),
        "values": np.concatenate([np.zeros(0), *(vec[tokens] for vec, tokens in zip(rows.values(), nonzero))]),
    })
    return type(model).from_json(obj)
