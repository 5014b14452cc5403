"""Tables 6.1-6.9 — the problem and implementation parameter sets.

These tables define *what* the result benches run; regenerating them
means printing the encoded sets (with the documented scale factors).
"""

from repro.apps.backprojection.problems import (BLOCK_SHAPES,
                                                PROBLEMS as BP_PROBLEMS,
                                                ZB_VALUES)
from repro.apps.backprojection.problems import SCALE_NOTE as BP_NOTE
from repro.apps.piv.problems import (FPGA_SET, MASK_SET, OVERLAP_SET,
                                     RB_VALUES, SCALE_NOTE as PIV_NOTE,
                                     SEARCH_SET, THREAD_COUNTS)
from repro.apps.template_matching.problems import (PATIENTS,
                                                   SCALE_NOTE as TM_NOTE,
                                                   THREAD_COUNTS as TM_T,
                                                   TILE_SIZES)
from repro.reporting import emit, format_table


def _build() -> str:
    sections = []
    sections.append(format_table(
        ["patient", "frame", "template", "shifts", "frames",
         "corr2 calls"],
        [[p.name, f"{p.frame_h}x{p.frame_w}",
          f"{p.tmpl_h}x{p.tmpl_w}", f"{p.shift_h}x{p.shift_w}",
          p.n_frames, p.corr2_calls] for p in PATIENTS],
        title="Table 5.1/6.x: template matching problems (scaled)",
        note=TM_NOTE))
    sections.append(format_table(
        ["tile sizes", "thread counts"],
        [[", ".join(f"{w}x{h}" for w, h in TILE_SIZES),
          ", ".join(map(str, TM_T))]],
        title="Table 6.1: template matching implementation parameters"))
    for title, problems in (
            ("Table 6.2/6.3: PIV FPGA-comparison sets", FPGA_SET),
            ("Table 6.4: PIV mask-size sets", MASK_SET),
            ("Table 6.5: PIV search-offset sets", SEARCH_SET),
            ("Table 6.6: PIV overlap sets", OVERLAP_SET)):
        sections.append(format_table(
            ["set", "image", "mask", "offsets", "overlap", "windows",
             "offsets/window"],
            [[p.name, f"{p.img_h}x{p.img_w}", f"{p.mask}x{p.mask}",
              f"{p.offs}x{p.offs}", p.overlap, p.n_windows,
              p.n_offsets] for p in problems],
            title=title, note=PIV_NOTE))
    sections.append(format_table(
        ["register blocking (rb)", "thread counts"],
        [[", ".join(map(str, RB_VALUES)),
          ", ".join(map(str, THREAD_COUNTS))]],
        title="Table 6.7: PIV implementation parameters"))
    sections.append(format_table(
        ["set", "volume", "projections", "detector"],
        [[p.name, f"{p.nx}x{p.ny}x{p.nz}", p.n_proj,
          f"{p.det_u}x{p.det_v}"] for p in BP_PROBLEMS],
        title="Table 6.8: backprojection problems (scaled)",
        note=BP_NOTE))
    sections.append(format_table(
        ["block shapes", "z register blocking (zb)"],
        [[", ".join(f"{x}x{y}" for x, y in BLOCK_SHAPES),
          ", ".join(map(str, ZB_VALUES))]],
        title="Table 6.9: backprojection implementation parameters"))
    return "\n\n".join(sections)


def test_tables_6_01_to_6_09(benchmark):
    text = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("table_6_01_09", text)
