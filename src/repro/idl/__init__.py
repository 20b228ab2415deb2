"""An OMG IDL compiler (the CORBA 2.x subset CORBA-LC needs).

The paper deliberately keeps "CORBA 2 standard, mature IDL compilers"
(§2.1.2) instead of inventing IDL extensions; component metadata goes in
XML.  This package plays the role of that IDL compiler: it parses IDL
source, checks it (:mod:`repro.idl.check`, the same checker the lint
and the deployment gate run) and emits runtime artifacts —

- TypeCodes for every struct/enum/union/typedef/exception,
- :class:`~repro.orb.exceptions.UserException` subclasses,
- :class:`~repro.orb.core.InterfaceDef` objects registered in the
  interface repository, ready for stubs/skeletons.

Usage::

    from repro.idl import compile_idl
    mod = compile_idl('''
        module Demo {
          struct Point { double x; double y; };
          interface Mover {
            Point move(in Point from, in double dx);
          };
        };
    ''')
    mod.Demo.Mover          # InterfaceDef
    mod.Demo.Point          # TypeCode

Compiling checks first: a specification with any error finding raises
:class:`~repro.idl.codegen.IdlSemanticError`, whose ``findings`` are
every error the checker reported.
"""

from repro.idl.lexer import IdlLexError, tokenize
from repro.idl.parser import IdlSyntaxError, parse
from repro.idl.codegen import CompiledModule, compile_ast, compile_idl

__all__ = [
    "tokenize",
    "parse",
    "compile_idl",
    "compile_ast",
    "CompiledModule",
    "IdlLexError",
    "IdlSyntaxError",
]
