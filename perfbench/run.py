"""Entry point of the harness; run from the repository root.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR

The last line of a run's standard output is its JSON result.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    # import perfbench as a package and repro from source; the script's
    # own directory would let its modules shadow top-level names
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        from perfbench.compare import main as compare

        return compare(argv[1:])
    from perfbench.harness import main as run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
