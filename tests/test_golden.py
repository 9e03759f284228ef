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

One hash was re-recorded when the open chain's exact series moved to free
fermions (Pfaffians of 2N x 2N Majorana contractions), after it matched the
dense sector series and the naive Hamiltonian to 1e-13 (test_exact). The
ideal and shots hashes, and so every m_sim, m_exact and dm they print,
stayed byte-identical, as did every periodic output:

- compare compare.csv 2e29885e...454996f -> a9ab09f1...2bc78c2, ratio_total
  at g=1: 2.11420625786 -> 2.11420625787, the hash of the first recording.

The heavily faulted noisy run and the periodic scaling run were recorded
with the gate-by-gate engine, before each ZZ bond became one diagonal phase
and the trajectories moved to the last axis. The periodic N=9 run was
recorded while the sector blocks were built from bit arithmetic, before
they became slices of `build_hamiltonian`; with two OpenBLAS threads in
place of one during the sector solves, both of its hashes change. The
multi-g shots sweep and the periodic compare were recorded while every g
ran as its own single-state run, before a g-list became one block. The two
paper-size noisy runs were recorded while every trajectory built its own
`default_rng((seed, t))`, before a block's seeds were hashed in one
vectorized pass, and while RX ran as a two-row update.
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
            {"compare.csv": "a9ab09f159b046149b7329d5b186371bc799c31cd42623d0b21b438ea2bc78c2"},
        ),
        # faults at these rates hit every slot of each CNOT-RZ-CNOT triple,
        # the wrap bond's included
        "noisy_heavy": (
            ["run", "--n", "4", "--periodic", "--order", "sym2", "--steps", "3",
             "--mode", "noisy", "--traj", "64", "--p1", "0.3", "--p2", "0.5",
             "--seed", "11"],
            {"series.csv": "d91b1027df5b50b00f2534d9cdc3bb5ce47308b78ff54b85331fe791c24ecea3",
             "totals.csv": "b8eaf425baf48c4af077776cc6788e6a2553d848f420ba76e621a78b47d3af85"},
        ),
        # the dense sector solve at a size where its rounding follows the
        # BLAS thread count (README, "Exact reference")
        "periodic_n9": (
            ["run", "--n", "9", "--periodic", "--steps", "4", "--g", "2"],
            {"series.csv": "372a96c9e87b5a5862bffb6bf7951506f08428477836926ae8c317df18942a9a",
             "totals.csv": "fab4a954d7f04bf26b33ee2b40eef617073c53995adc79d8652dc8f16463724a"},
        ),
        # several g as the columns of one shots block, 0 among them
        "sweep_shots": (
            ["sweep", "--n", "3", "--steps", "4", "--g-list", "0,1,2.5", "--mode", "shots",
             "--shots", "64", "--seed", "7"],
            {"sweep.csv": "80ed8eebf0387349fb36653090d5c41c3c5c2e842e2d50ef537356d99190e141",
             "g_1/series.csv": "9d9ca4cfbcb4ad520e75b18455ed510036cdc9a2d4f9da0b2cffaf21f2f6906d"},
        ),
        # an ideal block per order on the ring, with its per-g sector solves
        "compare_periodic": (
            ["compare", "--n", "4", "--steps", "4", "--periodic", "--g-list", "0.5,1,2"],
            {"compare.csv": "44cc002928777901fbe78eedab2d56aefbc30f0879146c4ac75837b23aa82494"},
        ),
        # the benchmark's paper-size noisy runs: a full 256-trajectory block
        # of device-like faults per order
        "noisy_n5_first": (
            ["run", "--n", "5", "--g", "2", "--dt", "0.2", "--steps", "20", "--mode", "noisy",
             "--traj", "256", "--seed", "3", "--order", "first"],
            {"series.csv": "f3aece566a844155cb77192e51761fedafed3f65b3bbe66d7b11b2e1a90154cf",
             "totals.csv": "4b58acd3fb61f96d8471da6044c0884bfec1eae370f76768f4201fdd0239f486"},
        ),
        "noisy_n5_sym2": (
            ["run", "--n", "5", "--g", "2", "--dt", "0.2", "--steps", "20", "--mode", "noisy",
             "--traj", "256", "--seed", "3", "--order", "sym2"],
            {"series.csv": "c021f54b89358b92fbb90015e424cc9295146fedc6df1a0cbe8147389ec44f0e",
             "totals.csv": "82b7214dc7f85f481cae3f8e9159c01d8bb457fda11ffb711769bb2029bf94af"},
        ),
        # the dense step unitaries of circuit_unitary, wrap bond included
        "scaling": (
            ["scaling", "--n", "4", "--g", "2", "--periodic", "--dt-list", "0.05,0.1,0.2"],
            {"scaling.csv": "765ee925b74eef9da615b571c26436937100bf564268ae7b907c13a4cc7d9484"},
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_csv_hashes(self, name, tmp_path, capsys):
        argv, hashes = self.GOLDEN[name]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        for file, digest in hashes.items():
            assert hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() == digest, file

