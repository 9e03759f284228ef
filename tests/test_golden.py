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
"""

import hashlib

import pytest

from trotterbench.cli import main


class TestGoldenOutputs:
    GOLDEN = {
        "ideal": (
            ["run", "--n", "3", "--g", "2", "--steps", "4", "--order", "sym2"],
            {"series.csv": "3950c2977496d87370230e99450a39794613b592d63ab81ef904bb7a1065a66d",
             "totals.csv": "b51c73a2081459bfaf130f46b438e0e02638128d28ee4dc577fe5490a42413f3"},
        ),
        "shots": (
            ["run", "--n", "3", "--g", "2", "--steps", "4", "--mode", "shots",
             "--shots", "64", "--seed", "7"],
            {"series.csv": "926cc9aeb55ccf2075d34cf13eb6b0f42663fe33b28d83e9b0bae0ab4f420621",
             "totals.csv": "9c12ef5103c02c5252aafb166e1aa2ac9809b7a8d3811d321c05adb83dd1c8f4"},
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

