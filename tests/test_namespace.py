"""The package namespace is lazy: ``import cryptoflow`` loads no submodule.

Each exported name is imported from the submodule that owns it on first
access and is that submodule's own object; importing the package sets no
environment variable, and importing ``gbm`` leaves SOURCE_DATE_EPOCH as it was.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import cryptoflow
from cryptoflow.__main__ import NATIVE_THREAD_VARS


def _fresh(code, **environ):
    env = dict(os.environ, **environ)
    for var in NATIVE_THREAD_VARS:
        env.pop(var, None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_neither_numpy_nor_scipy_nor_a_submodule():
    loaded = _fresh(
        "import json, sys, cryptoflow; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('numpy', 'scipy', 'cryptoflow'))))"
    )
    assert loaded == ["cryptoflow"]


def test_import_and_first_access_set_no_thread_variable():
    env = _fresh(
        "import json, os, cryptoflow; cryptoflow.eigenvalues; "
        f"print(json.dumps([os.environ.get(v) for v in {NATIVE_THREAD_VARS!r}]))"
    )
    assert env == [None] * len(NATIVE_THREAD_VARS)


def test_importing_gbm_keeps_a_bad_source_date_epoch():
    # numpy.f2py, loaded by scipy.special, raises on a non-integer value;
    # gbm hides the variable for that import and puts it back
    epoch = _fresh("import json, os, cryptoflow.gbm; "
                   "print(json.dumps(os.environ.get('SOURCE_DATE_EPOCH')))",
                   SOURCE_DATE_EPOCH="abc")
    assert epoch == "abc"


def test_first_access_imports_only_the_owning_submodule():
    # a variant name lives with Variant in inputs, which loads no numpy
    for name, owners in (("BlowUp", ["errors"]), ("FULL_5X5", ["errors", "inputs"])):
        loaded = _fresh(
            f"import json, sys, cryptoflow; cryptoflow.{name}; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy', 'cryptoflow'))))"
        )
        assert loaded == ["cryptoflow", *(f"cryptoflow.{m}" for m in owners)], name


def test_every_export_is_the_submodule_object_and_is_cached():
    assert cryptoflow.__version__ == "0.1.0"
    for name in cryptoflow.__all__[1:]:
        owner = importlib.import_module(f"cryptoflow.{cryptoflow._OWNER[name]}")
        assert getattr(cryptoflow, name) is getattr(owner, name), name
        assert vars(cryptoflow)[name] is getattr(owner, name), name


def test_star_import_binds_the_submodule_objects():
    namespace = {}
    exec("from cryptoflow import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cryptoflow.__all__)
    assert all(namespace[name] is getattr(cryptoflow, name) for name in namespace)


def test_all_has_no_duplicates_and_dir_lists_it():
    assert len(set(cryptoflow.__all__)) == len(cryptoflow.__all__)
    assert dir(cryptoflow) == sorted(cryptoflow.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cryptoflow.no_such_name
    assert not hasattr(cryptoflow, "_private")


def test_submodules_still_import_from_the_package():
    from cryptoflow import criteria

    assert criteria is sys.modules["cryptoflow.criteria"]
    assert criteria.verify_consistency is cryptoflow.verify_consistency


def test_submodules_resolve_as_package_attributes_in_a_fresh_interpreter():
    # nothing else has imported the submodules, so only __getattr__ binds them
    same = _fresh(
        "import json, cryptoflow; "
        "print(json.dumps([cryptoflow.model.rhs is cryptoflow.rhs, "
        "cryptoflow.stability.jacobian_stack.__module__] + "
        "[getattr(cryptoflow, m).__name__ for m in cryptoflow._EXPORTS]))"
    )
    assert same[:2] == [True, "cryptoflow.stability"]
    assert same[2:] == [f"cryptoflow.{m}" for m in cryptoflow._EXPORTS]


@pytest.mark.parametrize("access", ["cryptoflow.gbm", "cryptoflow.gbm_simulate"])
def test_a_lazy_load_is_listed_by_importtime(access):
    # importlib.import_module bypasses -X importtime; the import statement's
    # machinery does not
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           f"import cryptoflow; {access}"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]
    assert "cryptoflow.gbm" in rows
