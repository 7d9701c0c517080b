import dataclasses

from pgsim import config as cf


def schema_config(section, **overrides):
    """The typed config of ``section`` built from the config schema
    (``config.DEFAULTS``), with ``overrides`` replacing its fields."""
    return dataclasses.replace(cf.build_setup(cf.resolve())[section], **overrides)
