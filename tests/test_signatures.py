"""Each public function above the spectral layer takes the one object it
reads: a decomposition carries its process, an encoder its decomposition."""

import inspect

from augrkhs import complexity, encoders, objectives, regression


def _public_functions():
    for module in (complexity, encoders, objectives, regression):
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                yield f"{module.__name__}.{name}", inspect.signature(fn)


def _is_process(param) -> bool:
    return (param.name == "process"
            or "AugmentationProcess" in str(param.annotation))


def _is_decomposition(param) -> bool:
    return (param.name in ("decomposition", "dec")
            or "SpectralDecomposition" in str(param.annotation))


def test_no_function_takes_a_process_and_a_decomposition():
    both, optional = [], []
    for name, signature in _public_functions():
        params = signature.parameters.values()
        decs = [p for p in params if _is_decomposition(p)]
        if decs and any(_is_process(p) for p in params):
            both.append(name)
        if any(p.default is None for p in decs):
            optional.append(name)
    assert both == [], f"take a process and a decomposition: {both}"
    assert optional == [], f"default a decomposition to None: {optional}"


def test_the_guard_sees_every_layer():
    names = [name for name, _ in _public_functions()]
    for expected in ("augrkhs.complexity.kappa_exact",
                     "augrkhs.encoders.build_average_encoder",
                     "augrkhs.objectives.minimize",
                     "augrkhs.regression.generate_labels"):
        assert expected in names
