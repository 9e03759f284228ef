"""Golden outputs: sha256 of the CSVs that tiny CLI runs write.

The hashes were recorded before the batched gate engine replaced the
per-trajectory kernels, and guard refactors of the engine, the noise model
and the runner. Every number is printed with 12 significant digits, so a
change of the arithmetic shows here. The <Z> readout goes through BLAS dot
products, so another BLAS build may round a last digit differently.

Two hashes were re-recorded when the exact reference moved from a complex
eigh per order to one real eigh per chain, evaluated on the whole time
grid at once. max |dm_exact| between the two solvers is 1.1e-15 at N=3
(g=2, open) and 5.8e-15 at N=10 (g=2, 20 steps); every m_sim column and
the shots and noisy hashes stayed byte-identical. Each changed value moved
by one unit in its 12th digit:

- ideal series.csv da0641e6...f19a5048 -> 3950c297...1065a66d, the dm of
  t=0.8, site 1: 0.00272593360205 -> 0.00272593360206.
- compare compare.csv a9ab09f1...2bc78c2 -> 2e29885e...454996f, ratio_total
  at g=1: 2.11420625787 -> 2.11420625786.

Four hashes were re-recorded when the exact reference moved into the two
sectors of the global spin flip, after the sector series matched the naive
Hamiltonian's full-space evolution to 1e-13 (test_exact). Only dm cells
changed; every m_sim and m_exact printed the same digits:

- ideal series.csv 3950c297...1065a66d -> 85b03cbc...4ac40997: the dm of
  t=0 at sites 0, 1, 2 went -1.11022302463e-15 -> 0, and the dm of t=0.8,
  site 1 went 0.00272593360206 -> 0.00272593360205.
- ideal totals.csv b51c73a2...4a2413f3 -> 2cab85ea...4dcdac7 and shots
  totals.csv 9c12ef51...3dd1c8f4 -> 8fef1898...78b749: dm_total at t=0
  went -1.22124532709e-15 -> 0.
- shots series.csv 926cc9ae...4f420621 -> 88ca677e...8dfdf: the dm
  of t=0 at sites 0, 1, 2, as in the ideal run.

At t=0 the sector series gives M_j = -1 exactly for these runs, so dm
there prints 0.
"""

import hashlib

import pytest

from trotterbench.cli import main


class TestGoldenOutputs:
    GOLDEN = {
        "ideal": (
            ["run", "--n", "3", "--g", "2", "--steps", "4", "--order", "sym2"],
            {"series.csv": "85b03cbc76c91267c03d2a915ecfc3e249448343bf6cb1fe098f23fb4ac40997",
             "totals.csv": "2cab85ea9d1d1bfbd9983bc9487f27de9377b70a7669a3b2c5835e2b44dcdac7"},
        ),
        "shots": (
            ["run", "--n", "3", "--g", "2", "--steps", "4", "--mode", "shots",
             "--shots", "64", "--seed", "7"],
            {"series.csv": "88ca677ed943f14f07eb38c1695346fb85c5ba51597b0c5327b729c19a28dfdf",
             "totals.csv": "8fef18987ceb525d67804dd39be0e89770ec21b1e4c3ed649778f82ac478b749"},
        ),
        "noisy": (
            ["run", "--n", "3", "--g", "2", "--steps", "4", "--mode", "noisy",
             "--traj", "8", "--p1", "0.05", "--p2", "0.2", "--seed", "3"],
            {"series.csv": "5db2177e9eb8a892ed5125a46e8afeb5e754b7a97a036f42af58a3b65458a058",
             "totals.csv": "a459fd54a1b1e1b803b09bae576da5ca45c39b2cd82c57feee89ac08d5b2e481"},
        ),
        # 300 trajectories: more than one block of the batched engine
        "noisy_blocks": (
            ["run", "--n", "3", "--g", "1", "--steps", "4", "--mode", "noisy",
             "--traj", "300", "--p1", "0.05", "--p2", "0.2", "--seed", "5",
             "--order", "sym2", "--periodic"],
            {"series.csv": "dded9202185091b770045d634e6cebd8a0c0ff50b23e794193d7d69c44d06d0e",
             "totals.csv": "7ffa7e39492bf8d059b6e2b2f5c5bafd8f9ce3fbaacfa0a6e8ab93a14fdb1ce6"},
        ),
        "compare": (
            ["compare", "--n", "3", "--steps", "4", "--g-list", "1,2"],
            {"compare.csv": "2e29885e1cdee14e48ac1db9540f6d03fded64a3c6666d16ce31a2fda454996f"},
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_csv_hashes(self, name, tmp_path, capsys):
        argv, hashes = self.GOLDEN[name]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        for file, digest in hashes.items():
            assert hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() == digest, file

