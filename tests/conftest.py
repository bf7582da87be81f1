import dataclasses

import numpy as np
import pytest

from orthoglide import default_model


def dense_inertia_model(model, rng):
    """model with every link's first moment and inertia tensor fully
    populated, so that each term of the energy sums is non-zero; each chain
    draws its own links."""
    chains = []
    for chain in model.chains:
        links = []
        for link in chain.links:
            B = rng.normal(0.0, 0.05, (3, 3))
            ms = rng.normal(0.0, 0.05, 3)
            links.append(dataclasses.replace(link, first_moment=ms, inertia=B @ B.T + 1e-3 * np.eye(3)))
        chains.append(dataclasses.replace(chain, links=tuple(links)))
    return dataclasses.replace(model, chains=tuple(chains))


DENSE = dense_inertia_model(default_model(), np.random.default_rng(20261018))
# chains that differ in their bar lengths as well as their link inertias, so that the rows of
# every leg's frame table differ, not only the slider's
MIXED = dataclasses.replace(DENSE, chains=tuple(
    dataclasses.replace(chain, d4=d4, d6=d6, r2=r2)
    for chain, (d4, d6, r2) in zip(DENSE.chains, ((0.5, 0.1, 0.05), (0.47, 0.12, 0.04), (0.53, 0.09, 0.06)))
))


@pytest.fixture(scope="session")
def model():
    return default_model()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
