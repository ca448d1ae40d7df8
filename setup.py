from setuptools import Extension, setup

# _libkernels is a plain shared library, not a Python module: dyngem._kernels
# loads it through ctypes.  optional=True installs without it (the numpy
# fallback runs) when no C compiler is found.  -ffp-contract=off keeps every
# multiply-add unfused, so results do not depend on the host's instruction set.
setup(ext_modules=[Extension(
    "dyngem._libkernels", ["src/dyngem/_libkernels.c"],
    extra_compile_args=["-O2", "-ffp-contract=off"], libraries=["m"], optional=True,
)])
