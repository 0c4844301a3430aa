from setuptools import Extension, setup

# The C accelerator is optional: if it fails to build, the package falls back
# to the numpy field core with identical semantics.
setup(
    ext_modules=[
        Extension(
            "stepplace._fieldcore",
            sources=["src/stepplace/_fieldcore.c"],
            # no fused multiply-add: the net terms must round as Python does
            extra_compile_args=["-ffp-contract=off"],
            optional=True,
        )
    ]
)
