//===- support/RegSet.h - Fixed-size register bitset ----------*- C++ -*-===//
//
// Part of the spike-psg project: a reproduction of Goodwin, "Interprocedural
// Dataflow Analysis in an Executable Optimizer", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact set of machine registers, represented as a 32-bit mask.
///
/// Every dataflow set in the paper (MAY-USE, MAY-DEF, MUST-DEF, DEF, UBD,
/// live-at-entry, live-at-exit, call-used, call-defined, call-killed) is a
/// set of registers.  The synthetic Alpha-like ISA has 32 integer registers,
/// so one 32-bit word holds a full set and all the dataflow equations of
/// Figures 6, 8, and 10 become one or two bitwise operations.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SUPPORT_REGSET_H
#define SPIKE_SUPPORT_REGSET_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace spike {

/// Maximum number of registers a RegSet can hold: the bits of its word.
inline constexpr unsigned MaxRegisters = 32;

/// A set of machine registers backed by a single 32-bit mask.
///
/// The value-semantics API mirrors the set algebra used throughout the
/// paper: union (|), intersection (&), and difference (-).  Registers are
/// identified by small unsigned indices (0 .. MaxRegisters-1).
class RegSet {
public:
  /// The mask word; bit R is register R.
  using Word = uint32_t;
  static_assert(sizeof(Word) * 8 == MaxRegisters);

  /// Constructs the empty set.
  constexpr RegSet() = default;

  /// Constructs a set containing exactly the registers in \p Regs.
  constexpr RegSet(std::initializer_list<unsigned> Regs) {
    for (unsigned R : Regs)
      insert(R);
  }

  /// Returns a set containing every register index below \p NumRegs.
  static constexpr RegSet allBelow(unsigned NumRegs) {
    assert(NumRegs <= MaxRegisters && "register index out of range");
    RegSet S;
    S.Mask = NumRegs == MaxRegisters ? ~Word(0) : ((Word(1) << NumRegs) - 1);
    return S;
  }

  /// Returns a set built directly from a raw mask.
  static constexpr RegSet fromMask(Word Mask) {
    RegSet S;
    S.Mask = Mask;
    return S;
  }

  /// Returns the raw mask.
  constexpr Word mask() const { return Mask; }

  /// Returns true if the set contains no registers.
  constexpr bool empty() const { return Mask == 0; }

  /// Returns the number of registers in the set.
  constexpr unsigned count() const { return std::popcount(Mask); }

  /// Returns true if register \p R is a member.
  constexpr bool contains(unsigned R) const {
    assert(R < MaxRegisters && "register index out of range");
    return (Mask >> R) & 1;
  }

  /// Returns true if every member of \p Other is also a member of this set.
  constexpr bool containsAll(RegSet Other) const {
    return (Other.Mask & ~Mask) == 0;
  }

  /// Returns true if the two sets share at least one register.
  constexpr bool intersects(RegSet Other) const {
    return (Mask & Other.Mask) != 0;
  }

  /// Adds register \p R to the set.
  constexpr void insert(unsigned R) {
    assert(R < MaxRegisters && "register index out of range");
    Mask |= Word(1) << R;
  }

  /// Removes register \p R from the set.
  constexpr void erase(unsigned R) {
    assert(R < MaxRegisters && "register index out of range");
    Mask &= ~(Word(1) << R);
  }

  /// Removes all registers.
  constexpr void clear() { Mask = 0; }

  /// Set union.
  constexpr RegSet operator|(RegSet Other) const {
    return fromMask(Mask | Other.Mask);
  }

  /// Set intersection.
  constexpr RegSet operator&(RegSet Other) const {
    return fromMask(Mask & Other.Mask);
  }

  /// Set difference (members of this set that are not in \p Other).
  constexpr RegSet operator-(RegSet Other) const {
    return fromMask(Mask & ~Other.Mask);
  }

  constexpr RegSet &operator|=(RegSet Other) {
    Mask |= Other.Mask;
    return *this;
  }

  constexpr RegSet &operator&=(RegSet Other) {
    Mask &= Other.Mask;
    return *this;
  }

  constexpr RegSet &operator-=(RegSet Other) {
    Mask &= ~Other.Mask;
    return *this;
  }

  constexpr bool operator==(const RegSet &Other) const = default;

  /// Iterator over the register indices in ascending order.
  class const_iterator {
  public:
    constexpr const_iterator(Word Remaining) : Remaining(Remaining) {}

    constexpr unsigned operator*() const {
      assert(Remaining != 0 && "dereferencing end iterator");
      return std::countr_zero(Remaining);
    }

    constexpr const_iterator &operator++() {
      Remaining &= Remaining - 1;
      return *this;
    }

    constexpr bool operator==(const const_iterator &) const = default;

  private:
    Word Remaining;
  };

  constexpr const_iterator begin() const { return const_iterator(Mask); }
  constexpr const_iterator end() const { return const_iterator(0); }

  /// Renders the set as "{R1, R5, R26}" using plain register indices.
  std::string str() const;

private:
  Word Mask = 0;
};

} // namespace spike

#endif // SPIKE_SUPPORT_REGSET_H
