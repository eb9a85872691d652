//===- isa/Registers.h - Synthetic Alpha-like register file ---*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The integer register file of the synthetic Alpha-like ISA.
///
/// The paper analyzes Alpha/NT executables, whose integer register file has
/// 32 registers with conventional roles fixed by the Windows NT calling
/// standard for Alpha ([CALLSTD] in the paper).  We reproduce the same
/// structure: a return-value register, argument registers, caller-saved
/// temporaries, callee-saved registers, and the special ra/sp/gp/zero
/// registers.  The exact numbering follows the Alpha convention so that the
/// worked examples read naturally.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_ISA_REGISTERS_H
#define SPIKE_ISA_REGISTERS_H

#include "support/RegSet.h"

namespace spike {

/// Number of integer registers in the synthetic ISA.
inline constexpr unsigned NumIntRegs = 32;
static_assert(NumIntRegs <= MaxRegisters, "a RegSet must hold every register");

/// Well-known register numbers (Alpha integer register conventions).
namespace reg {
inline constexpr unsigned V0 = 0;   ///< Function return value.
inline constexpr unsigned T0 = 1;   ///< First caller-saved temporary.
inline constexpr unsigned T7 = 8;   ///< Last of t0..t7.
inline constexpr unsigned S0 = 9;   ///< First callee-saved register.
inline constexpr unsigned S5 = 14;  ///< Last of s0..s5.
inline constexpr unsigned FP = 15;  ///< Frame pointer (callee-saved).
inline constexpr unsigned A0 = 16;  ///< First argument register.
inline constexpr unsigned A5 = 21;  ///< Last argument register.
inline constexpr unsigned T8 = 22;  ///< First of t8..t11.
inline constexpr unsigned T11 = 25; ///< Last of t8..t11.
inline constexpr unsigned RA = 26;  ///< Return address.
inline constexpr unsigned PV = 27;  ///< Procedure value (t12).
inline constexpr unsigned AT = 28;  ///< Assembler temporary.
inline constexpr unsigned GP = 29;  ///< Global pointer.
inline constexpr unsigned SP = 30;  ///< Stack pointer.
inline constexpr unsigned Zero = 31; ///< Hardwired zero; writes discarded.
} // namespace reg

/// Returns the conventional name of integer register \p R ("v0", "s3", ...).
const char *regName(unsigned R);

/// Parses a register name; returns NumIntRegs on failure.  Accepts both the
/// conventional names ("a0") and raw "$17" / "r17" forms.
unsigned parseRegName(const char *Name);

} // namespace spike

#endif // SPIKE_ISA_REGISTERS_H
