import gc
import sys

from .cli import main


def run() -> int:
    """The `growthlab` launcher: main()'s exit code, after moving every
    object still alive out of the garbage collector's reach, so that the
    interpreter's collections at shutdown do not walk what numpy and
    growthlab made. atexit handlers and the final flush still run; main()
    called in process leaves the caller's collector as it was."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
