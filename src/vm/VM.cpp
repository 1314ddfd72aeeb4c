//===- vm/VM.cpp - Bytecode interpreter -------------------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "lang/Builtins.h"
#include "vm/InterpOps.h"

#include <cmath>

using namespace dspec;

// The arith/compare semantics live in vm/InterpOps.h, shared with the
// batched tier in FastInterp.cpp so both tiers compute bit-identical
// results.
using dspec::interp::arith;
using dspec::interp::compare;

ExecResult VM::run(const Chunk &C, const std::vector<Value> &Args,
                   CacheView View) {
  ExecResult Result;

  auto Trap = [&](std::string Message) {
    Result.Trapped = true;
    Result.TrapMessage = std::move(Message);
  };

  if (Args.size() != C.NumParams) {
    Trap("argument count mismatch calling '" + C.Name + "'");
    return Result;
  }

  std::vector<Value> &Locals = LocalsScratch;
  Locals.resize(C.numLocals());
  for (unsigned I = 0; I < C.numLocals(); ++I)
    Locals[I] = Value::zeroOf(Type(C.LocalTypes[I]));
  for (unsigned I = 0; I < C.NumParams; ++I) {
    if (!interp::argFits(Args[I], C.LocalTypes[I])) {
      Trap("argument type mismatch calling '" + C.Name + "'");
      return Result;
    }
    Locals[I] = interp::promoteArg(Args[I], C.LocalTypes[I]);
  }

  std::vector<Value> &Stack = StackScratch;
  Stack.clear();
  Stack.reserve(64);
  uint64_t Executed = 0;
  size_t IP = 0;

  auto Pop = [&]() {
    Value V = Stack.back();
    Stack.pop_back();
    return V;
  };

  while (IP < C.Code.size()) {
    if (++Executed > InstructionBudget) {
      Trap("instruction budget exceeded in '" + C.Name + "'");
      Result.InstructionsExecuted = Executed;
      return Result;
    }
    const Instr &In = C.Code[IP++];
    switch (In.Op) {
    case OpCode::OC_Const:
      Stack.push_back(C.Constants[In.A]);
      break;
    case OpCode::OC_LoadLocal:
      Stack.push_back(Locals[In.A]);
      break;
    case OpCode::OC_StoreLocal:
      Locals[In.A] = Pop();
      break;
    case OpCode::OC_Convert: {
      Value V = Pop();
      Stack.push_back(V.convertTo(Type(static_cast<TypeKind>(In.A))));
      break;
    }
    case OpCode::OC_Pop:
      Pop();
      break;
    case OpCode::OC_Neg: {
      Value V = Pop();
      if (V.isInt()) {
        Stack.push_back(Value::makeInt(-V.I));
      } else if (V.isVector()) {
        Value Out = V;
        for (unsigned I = 0; I < V.width(); ++I)
          Out.F[I] = -V.F[I];
        Stack.push_back(Out);
      } else {
        Stack.push_back(Value::makeFloat(-V.asFloat()));
      }
      break;
    }
    case OpCode::OC_Not: {
      Value V = Pop();
      Stack.push_back(Value::makeBool(!V.asBool()));
      break;
    }
    case OpCode::OC_Add: {
      Value R = Pop(), L = Pop();
      Stack.push_back(arith(
          L, R, [](float A, float B) { return A + B; },
          [](int32_t A, int32_t B) { return A + B; }));
      break;
    }
    case OpCode::OC_Sub: {
      Value R = Pop(), L = Pop();
      Stack.push_back(arith(
          L, R, [](float A, float B) { return A - B; },
          [](int32_t A, int32_t B) { return A - B; }));
      break;
    }
    case OpCode::OC_Mul: {
      Value R = Pop(), L = Pop();
      Stack.push_back(arith(
          L, R, [](float A, float B) { return A * B; },
          [](int32_t A, int32_t B) { return A * B; }));
      break;
    }
    case OpCode::OC_Div: {
      Value R = Pop(), L = Pop();
      if (L.isInt() && R.isInt() && R.I == 0) {
        // The compiler stamps the divisor's SourceLoc into A/B.
        Trap("integer division by zero in '" + C.Name + "'" +
             interp::srcLocSuffix(In.A, In.B));
        Result.InstructionsExecuted = Executed;
        return Result;
      }
      Stack.push_back(arith(
          L, R, [](float A, float B) { return A / B; },
          [](int32_t A, int32_t B) { return A / B; }));
      break;
    }
    case OpCode::OC_Mod: {
      Value R = Pop(), L = Pop();
      if (R.I == 0) {
        Trap("integer modulo by zero in '" + C.Name + "'" +
             interp::srcLocSuffix(In.A, In.B));
        Result.InstructionsExecuted = Executed;
        return Result;
      }
      Stack.push_back(Value::makeInt(L.I % R.I));
      break;
    }
    case OpCode::OC_Lt: {
      Value R = Pop(), L = Pop();
      Stack.push_back(compare(L, R, [](float A, float B) { return A < B; }));
      break;
    }
    case OpCode::OC_Le: {
      Value R = Pop(), L = Pop();
      Stack.push_back(compare(L, R, [](float A, float B) { return A <= B; }));
      break;
    }
    case OpCode::OC_Gt: {
      Value R = Pop(), L = Pop();
      Stack.push_back(compare(L, R, [](float A, float B) { return A > B; }));
      break;
    }
    case OpCode::OC_Ge: {
      Value R = Pop(), L = Pop();
      Stack.push_back(compare(L, R, [](float A, float B) { return A >= B; }));
      break;
    }
    case OpCode::OC_Eq: {
      Value R = Pop(), L = Pop();
      if (L.isBool() && R.isBool())
        Stack.push_back(Value::makeBool(L.I == R.I));
      else
        Stack.push_back(
            compare(L, R, [](float A, float B) { return A == B; }));
      break;
    }
    case OpCode::OC_Ne: {
      Value R = Pop(), L = Pop();
      if (L.isBool() && R.isBool())
        Stack.push_back(Value::makeBool(L.I != R.I));
      else
        Stack.push_back(
            compare(L, R, [](float A, float B) { return A != B; }));
      break;
    }
    case OpCode::OC_And: {
      Value R = Pop(), L = Pop();
      Stack.push_back(Value::makeBool(L.asBool() && R.asBool()));
      break;
    }
    case OpCode::OC_Or: {
      Value R = Pop(), L = Pop();
      Stack.push_back(Value::makeBool(L.asBool() || R.asBool()));
      break;
    }
    case OpCode::OC_Select: {
      Value F = Pop(), T = Pop(), Cond = Pop();
      Stack.push_back(Cond.asBool() ? T : F);
      break;
    }
    case OpCode::OC_Jump:
      IP = static_cast<size_t>(In.A);
      break;
    case OpCode::OC_JumpIfFalse: {
      Value Cond = Pop();
      if (!Cond.asBool())
        IP = static_cast<size_t>(In.A);
      break;
    }
    case OpCode::OC_CallBuiltin: {
      unsigned Argc = static_cast<unsigned>(In.B);
      assert(Stack.size() >= Argc && "stack underflow in builtin call");
      assert(Argc <= 8 && "builtin arity exceeds the argument rows");
      const Value *ArgRows[8];
      for (unsigned A = 0; A < Argc; ++A)
        ArgRows[A] = &Stack[Stack.size() - Argc + A];
      Value Out;
      callBuiltinLanes(static_cast<uint16_t>(In.A), ArgRows, &Out, 1, *this);
      Stack.resize(Stack.size() - Argc);
      Stack.push_back(Out);
      break;
    }
    case OpCode::OC_Member: {
      Value V = Pop();
      Stack.push_back(Value::makeFloat(V.F[In.A]));
      break;
    }
    case OpCode::OC_CacheLoad: {
      // Trap messages and their order match the batched tier's.
      if (!View.data()) {
        Trap("cache read without a loaded cache in '" + C.Name + "'");
        Result.InstructionsExecuted = Executed;
        return Result;
      }
      TypeKind Kind = static_cast<TypeKind>(In.C);
      unsigned Offset = static_cast<unsigned>(In.B);
      if (!View.inBounds(Offset, Kind)) {
        Trap("cache read past the layout in '" + C.Name + "'");
        Result.InstructionsExecuted = Executed;
        return Result;
      }
      Stack.push_back(View.load(Offset, Kind));
      break;
    }
    case OpCode::OC_CacheStore: {
      // The stored value stays on the stack. Trap messages and their
      // order (missing cache, read-only, bounds, kind) match the batched
      // tier's.
      if (!View.data()) {
        Trap("cache write without cache storage in '" + C.Name + "'");
        Result.InstructionsExecuted = Executed;
        return Result;
      }
      if (View.readOnly()) {
        Trap("cache store to a read-only cache in '" + C.Name + "'");
        Result.InstructionsExecuted = Executed;
        return Result;
      }
      TypeKind Kind = static_cast<TypeKind>(In.C);
      unsigned Offset = static_cast<unsigned>(In.B);
      const Value &V = Stack.back();
      if (!View.inBounds(Offset, Kind)) {
        Trap("cache store past the layout in '" + C.Name + "'");
        Result.InstructionsExecuted = Executed;
        return Result;
      }
      if (V.Kind != Kind) {
        Trap("cache store type mismatch in '" + C.Name + "': slot is " +
             Type(Kind).name() + ", value is " + Type(V.Kind).name());
        Result.InstructionsExecuted = Executed;
        return Result;
      }
      View.store(Offset, V);
      break;
    }
    case OpCode::OC_Return:
      Result.Result = Pop();
      Result.InstructionsExecuted = Executed;
      return Result;
    case OpCode::OC_ReturnVoid:
      Result.Result = Value::makeVoid();
      Result.InstructionsExecuted = Executed;
      return Result;
    }
  }

  Result.InstructionsExecuted = Executed;
  return Result;
}
