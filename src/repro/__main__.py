"""Command-line entry points: ``python -m repro <command>``.

Small drivers over the library for exploration without writing a
script: compile-and-inspect a kernel, run each application demo
end-to-end, and sweep a PIV configuration space.
"""

from __future__ import annotations

import argparse
import sys


def cmd_compile(args) -> int:
    """Compile a kernel file and print its PTX + resource metadata."""
    from repro.kernelc import nvcc

    with open(args.source) as fh:
        source = fh.read()
    defines = {}
    for item in args.define or []:
        if "=" in item:
            name, value = item.split("=", 1)
            try:
                defines[name] = int(value, 0)
            except ValueError:
                try:
                    defines[name] = float(value)
                except ValueError:
                    defines[name] = value
        else:
            defines[item] = 1
    module = nvcc(source, defines=defines, arch=args.arch,
                  opt_level=args.opt)
    for name, kernel in module.kernels.items():
        print(kernel.to_ptx())
        print(f"// {name}: {kernel.reg_count} registers/thread, "
              f"{kernel.shared_bytes} B shared, "
              f"{kernel.static_instructions} instructions")
    return 0


def cmd_demo(args) -> int:
    """Run one of the bundled application demos."""
    import runpy
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent.parent / "examples"
    scripts = {
        "quickstart": "quickstart.py",
        "match": "template_matching_demo.py",
        "piv": "piv_demo.py",
        "backproject": "backprojection_demo.py",
        "rowfilter": "opencv_row_filter.py",
    }
    path = root / scripts[args.name]
    runpy.run_path(str(path), run_name="__main__")
    return 0


def cmd_sweep(args) -> int:
    """Sweep the PIV (rb, threads) space and print the optimum."""
    from repro.apps.piv import PIVProblem
    from repro.gpusim.device import DEVICES
    from repro.reporting import format_table
    from repro.tuning import best_record, harness_sweep, peak_grid_text

    problem = PIVProblem("cli", args.height, args.width,
                         mask=args.mask, offs=args.offs)
    records = harness_sweep("piv", problem,
                            {"rb": [1, 2, 4, 8], "threads": [32, 64, 128]},
                            device=args.device, seed=0).records
    headers, rows = peak_grid_text(records, "rb", "threads")
    print(format_table(headers, rows,
                       title=f"% of peak on {DEVICES[args.device].name} "
                             f"(mask {args.mask}, offsets {args.offs})"))
    best = best_record(records)
    print(f"\noptimum: rb={best.config['rb']} "
          f"threads={best.config['threads']} "
          f"({best.seconds * 1e6:.1f} us simulated, "
          f"{best.reg_count} regs, occupancy {best.occupancy:.2f})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kernel-specialization reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # Enumerated dynamically so a new DeviceSpec/arch registers itself
    # everywhere: the CLI, its --help text, and the error messages.
    from repro.gpusim.device import DEVICES
    from repro.kernelc.compiler import ARCH_MACROS

    p = sub.add_parser("compile",
                       help="compile a kernel file, print PTX")
    p.add_argument("source")
    p.add_argument("-D", "--define", action="append", metavar="N[=V]",
                   help="specialization macro (repeatable)")
    p.add_argument("--arch", default="sm_20",
                   choices=sorted(ARCH_MACROS))
    p.add_argument("-O", "--opt", type=int, default=3)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("demo", help="run a bundled demo")
    p.add_argument("name", choices=["quickstart", "match", "piv",
                                    "backproject", "rowfilter"])
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("sweep", help="sweep PIV configurations")
    p.add_argument("--device", default="c2070",
                   choices=sorted(DEVICES))
    p.add_argument("--mask", type=int, default=16)
    p.add_argument("--offs", type=int, default=9)
    p.add_argument("--width", type=int, default=160)
    p.add_argument("--height", type=int, default=120)
    p.set_defaults(fn=cmd_sweep)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
