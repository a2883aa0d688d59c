"""What a fresh process loads: the package alone, then a command's layers.

`import frescos` loads no module of the package; each exported name
imports its module on first access.  A command loads only the layers it
runs: identities the exchange identities and the alpha layer the command
line keeps at hand, a presentation command the parser as well, xi the
expansions and their linear algebra, verify the oracle and the same
linear algebra.  Each case runs in a new interpreter, since this one has
long loaded every module.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

CORE = {"frescos", "frescos.cli", "frescos.errors", "frescos.series",
        "frescos.algebra", "frescos.alpha", "frescos.fresco"}


def fresh(code):
    """The JSON a new interpreter prints on running code against src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


LOADED = ("json.dumps(sorted(m for m in sys.modules "
          "if m == 'frescos' or m.startswith('frescos.')))")


def test_importing_the_package_loads_no_module():
    assert fresh("import json, sys\nimport frescos\nprint(%s)"
                 % LOADED) == ["frescos"]


@pytest.mark.parametrize("argv, layers", [
    (["identities", "--samples", "1", "--order", "16"], set()),
    (["analyze", "fresco: (5/2 | 1 + 3b^2) (7/2 | 1)"], {"dsl"}),
    (["ss", "fresco: (3 | 1) (3 | 1)"], {"dsl"}),
    (["xi", "s^(1/2) * log^2"], {"dsl", "xi", "linalg"}),
    (["verify", "--samples", "1"], {"dsl", "oracle", "linalg"}),
], ids=["identities", "analyze", "ss", "xi", "verify"])
def test_a_command_loads_only_its_layers(argv, layers):
    code = ("import io, json, sys\nfrom frescos import cli\n"
            "cli.main(%r, stdout=io.StringIO())\nprint(%s)"
            % (argv + ["--seed", "1"], LOADED))
    assert set(fresh(code)) == CORE | {"frescos." + m for m in layers}


def test_every_export_is_the_object_in_its_module():
    # the first access to each name goes through the table; each name
    # must belong to the module the table gives, not one importing it
    bad = fresh(
        "import importlib, json\nimport frescos\nbad = []\n"
        "for module, names in frescos._EXPORTS.items():\n"
        "    mod = importlib.import_module('frescos.' + module)\n"
        "    for name in names:\n"
        "        value = getattr(frescos, name)\n"
        "        home = getattr(value, '__module__', mod.__name__)\n"
        "        if value is not getattr(mod, name) or home != mod.__name__:\n"
        "            bad.append(name)\n"
        "print(json.dumps(bad))")
    assert bad == []


def test_star_import_binds_every_name():
    missing = fresh("import json\nns = {}\nexec('from frescos import *', ns)\n"
                    "import frescos\n"
                    "print(json.dumps([n for n in frescos.__all__ "
                    "if ns.get(n, ns) is not getattr(frescos, n)]))")
    assert missing == []


def test_an_unknown_name_is_an_attribute_error_naming_it():
    got = fresh("import json\nimport frescos\ntry:\n"
                "    frescos.no_such_name\nexcept AttributeError as exc:\n"
                "    print(json.dumps(str(exc)))")
    assert got == "module 'frescos' has no attribute 'no_such_name'"
