"""CLI entry-point tests (python -m repro ...)."""

import numpy as np
import pytest

from repro.__main__ import main

#: ``sweep --mask 8 --offs 5 --width 48 --height 48`` on the default
#: device (PIV inputs regenerated from seed 0).
SWEEP_48_OUTPUT = """\
% of peak on Tesla C2070 (mask 8, offsets 5)
rb\\threads | 32  | 64   | 128
-----------+-----+------+----
1          | 76% | 100% | 70%
2          | 75% | 99%  | 71%
4          | 72% | 94%  | 69%
8          | 65% | 86%  | 62%

optimum: rb=1 threads=64 (26.6 us simulated, 24 regs, occupancy 0.33)
"""


class TestCompileCommand:
    def test_compile_prints_ptx(self, tmp_path, capsys):
        src = tmp_path / "k.cu"
        src.write_text(
            "__global__ void k(float* o, int n) {\n"
            "  int i = threadIdx.x;\n"
            "  if (i < n) o[i] = (float)i;\n"
            "}\n")
        assert main(["compile", str(src)]) == 0
        out = capsys.readouterr().out
        assert ".entry k" in out
        assert "registers/thread" in out

    def test_compile_with_defines(self, tmp_path, capsys):
        src = tmp_path / "k.cu"
        src.write_text(
            "__global__ void k(float* o) {\n"
            "  float acc = 0.0f;\n"
            "  for (int i = 0; i < COUNT; i++) acc += 1.0f;\n"
            "  o[threadIdx.x] = acc * SCALE;\n"
            "}\n")
        assert main(["compile", str(src), "-D", "COUNT=4",
                     "-D", "SCALE=2.5"]) == 0
        out = capsys.readouterr().out
        assert "bra" not in out  # unrolled
        assert "10.0" in out     # 4 * 2.5 folded

    def test_arch_selection(self, tmp_path, capsys):
        src = tmp_path / "k.cu"
        src.write_text(
            "#if __CUDA_ARCH__ >= 200\n"
            "__global__ void k(float* o) { o[0] = 2.0f; }\n"
            "#else\n"
            "__global__ void k(float* o) { o[0] = 1.0f; }\n"
            "#endif\n")
        main(["compile", str(src), "--arch", "sm_13"])
        assert "1.0" in capsys.readouterr().out
        main(["compile", str(src), "--arch", "sm_20"])
        assert "2.0" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_prints_grid_and_optimum(self, capsys):
        assert main(["sweep", "--mask", "8", "--offs", "5",
                     "--width", "48", "--height", "48"]) == 0
        out = capsys.readouterr().out
        assert "% of peak" in out
        assert "optimum: rb=" in out

    def test_sweep_output_is_pinned(self, capsys):
        """The full report, byte for byte: the grid, its order, and the
        optimum line must not move when the sweep path changes."""
        assert main(["sweep", "--mask", "8", "--offs", "5",
                     "--width", "48", "--height", "48"]) == 0
        assert capsys.readouterr().out == SWEEP_48_OUTPUT

    def test_device_selection(self, capsys):
        assert main(["sweep", "--device", "c1060", "--mask", "8",
                     "--offs", "5", "--width", "48",
                     "--height", "48"]) == 0
        assert "C1060" in capsys.readouterr().out


class TestArgParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_source_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["compile", str(tmp_path / "missing.cu")])
