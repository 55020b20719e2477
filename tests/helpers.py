"""Shared test helpers: one-cluster views of the channel builders, and
the member streams built the reference way."""
import numpy as np

from beamchan.bdcm import bdcm_matrix
from beamchan.gbsm import gbsm_matrix


def member_stream(seed, member, purpose):
    """Stream (member, purpose) of ``seed`` from numpy's own SeedSequence:
    the oracle of the stream states the estimators compute."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(member, purpose)))


def gbsm_cluster_matrix(cluster, t, config, phases):
    """All-antenna GBSM coefficient matrix of one cluster; entries outside
    the cluster's joint visibility set are exactly zero."""
    return gbsm_matrix(t, [cluster], config, phases).coeffs[:, :, 0]


def bdcm_cluster_matrix(cluster, t, config, phases):
    """All-antenna BDCM coefficient matrix of one cluster, visibility gated."""
    return bdcm_matrix(t, [cluster], config, phases).coeffs[:, :, 0]
