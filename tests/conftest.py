"""Shared test hooks and fixtures.

Each criterion in test_acceptance.py prints one PASS/FAIL line with its
runtime.  Output capture keeps those lines out of the terminal, so a hook
repeats them, in test order, in the terminal summary.  Under `-s` they
appear inline instead and are not repeated.

The `block_diagonal_realization` fixture builds realizations in the
block-diagonal layout that stored realization files may still hold.
"""

import math

import numpy as np
import pytest

from corrset.geometry import Decomposition
from corrset.quantum import Realization


def _realize_term_by_term(decomposition: Decomposition) -> Realization:
    """Block-diagonal realization of a generator mixture: term k's qubit
    pair on rows 2k, 2k + 1 of each party, so a k-term mixture has local
    dimension 2k and a state with zeros on its diagonal.

    Term k, with weight w and generator G(phi1, phi2, phi3), holds w times
    the pair state (|00> + e^{i phi} |11>)/sqrt(2), phi = pi/2 - phi1.  Each
    observable's block has e^{i theta} above and e^{-i theta} below the
    diagonal, with theta = 0 for A0 and B0, alpha = phi3 + phi1 - pi for A1
    and beta = phi2 + phi1 - pi for B1.  Then <A_a B_b> = cos(phi + a alpha
    + b beta), the generator's components.
    """
    count = len(decomposition.terms)
    local = 2 * count
    matrices = [np.zeros((local, local), dtype=complex) for _ in range(4)]
    state = np.zeros((local,) * 4, dtype=complex)
    for k, (weight, g) in enumerate(decomposition.terms):
        phi = 0.5 * math.pi - g.phi1
        alpha = g.phi3 + g.phi1 - math.pi
        beta = g.phi2 + g.phi1 - math.pi
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0 / math.sqrt(2.0)
        psi[3] = psi[0] * np.exp(1j * phi)
        rows = slice(2 * k, 2 * k + 2)
        pair = weight * np.outer(psi, psi.conj())
        state[rows, rows, rows, rows] = pair.reshape(2, 2, 2, 2)
        for matrix, theta in zip(matrices, (0.0, alpha, 0.0, beta)):
            matrix[rows, rows] = np.array(
                [[0.0, np.exp(1j * theta)], [np.exp(-1j * theta), 0.0]]
            )
    return Realization(state.reshape(local * local, -1), *matrices)


@pytest.fixture
def block_diagonal_realization():
    return _realize_term_by_term


def pytest_terminal_summary(terminalreporter):
    reports = [
        report
        for key in ("passed", "failed")
        for report in terminalreporter.stats.get(key, [])
        if report.when == "call"
    ]
    lines = [
        line
        for report in sorted(reports, key=lambda r: r.nodeid)
        for line in report.capstdout.splitlines()
        if line.startswith(("PASS criterion", "FAIL criterion"))
    ]
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
