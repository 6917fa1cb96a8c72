import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CCompilerError, ExecError, PlatformError


class BuildKernel(build_ext):
    """Build the C kernel; on failure stop and say how to skip it."""

    def run(self):
        try:
            super().run()
        except (CCompilerError, ExecError, PlatformError) as exc:
            raise SystemExit(
                f"error: cannot build the compiled search kernel: {exc}\n"
                "Set BOLFORGE_PURE=1 to install the pure-Python kernel only."
            ) from exc


ext_modules = []
if os.environ.get("BOLFORGE_PURE") != "1":
    ext_modules = [
        Extension(
            "bolforge.search._kernel_c",
            ["src/bolforge/search/_kernel_c.c"],
            extra_compile_args=["-O3"],
        )
    ]

setup(ext_modules=ext_modules, cmdclass={"build_ext": BuildKernel})
