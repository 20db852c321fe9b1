"""Shared fixtures: one surface and its meshes, built once per session.

Mesh construction at level 4 takes a couple of seconds, so everything that
can share a mesh does.  Tests that mutate nothing may use these freely;
tests that need a different level build their own.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conformal_lab import HyperbolicSurface, build_mesh


@pytest.fixture(scope="session")
def surface():
    return HyperbolicSurface()


@pytest.fixture(scope="session")
def mesh2(surface):
    return build_mesh(surface.domain, 2)


@pytest.fixture(scope="session")
def mesh3(surface):
    return build_mesh(surface.domain, 3)


@pytest.fixture(scope="session")
def mesh4(surface):
    return build_mesh(surface.domain, 4)


@pytest.fixture(scope="session")
def disconnected_mesh3(mesh3):
    """mesh3 with every edge at one representative vertex removed."""
    cut = mesh3.rep[mesh3.edges[0, 0]]
    keep = np.all(mesh3.rep[mesh3.edges] != cut, axis=1)
    return dataclasses.replace(
        mesh3, edges=mesh3.edges[keep], edge_len_sigma=mesh3.edge_len_sigma[keep]
    )
