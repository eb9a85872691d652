//===- support/Status.cpp - Structured errors for ingestion ---------------===//

#include "support/Status.h"

#include <sstream>

using namespace spike;

const char *spike::errorCodeName(ErrCode Code) {
  switch (Code) {
  case ErrCode::None:
    return "None";
  case ErrCode::IoOpen:
    return "IoOpen";
  case ErrCode::IoRead:
    return "IoRead";
  case ErrCode::EmptyFile:
    return "EmptyFile";
  case ErrCode::BadMagic:
    return "BadMagic";
  case ErrCode::TruncatedHeader:
    return "TruncatedHeader";
  case ErrCode::TruncatedCode:
    return "TruncatedCode";
  case ErrCode::TruncatedSymbols:
    return "TruncatedSymbols";
  case ErrCode::TruncatedJumpTables:
    return "TruncatedJumpTables";
  case ErrCode::TruncatedData:
    return "TruncatedData";
  case ErrCode::TruncatedAnnotations:
    return "TruncatedAnnotations";
  case ErrCode::TrailingBytes:
    return "TrailingBytes";
  case ErrCode::UndecodableOpcode:
    return "UndecodableOpcode";
  case ErrCode::SymbolOutOfRange:
    return "SymbolOutOfRange";
  case ErrCode::SymbolOrder:
    return "SymbolOrder";
  case ErrCode::DuplicateSymbol:
    return "DuplicateSymbol";
  case ErrCode::EntryOutOfRange:
    return "EntryOutOfRange";
  case ErrCode::JumpTableTargetOutOfRange:
    return "JumpTableTargetOutOfRange";
  case ErrCode::EmptyJumpTable:
    return "EmptyJumpTable";
  case ErrCode::DanglingJumpTableIndex:
    return "DanglingJumpTableIndex";
  case ErrCode::CallTargetOutOfRange:
    return "CallTargetOutOfRange";
  case ErrCode::AnnotationUnresolved:
    return "AnnotationUnresolved";
  case ErrCode::CodeOutsideRoutines:
    return "CodeOutsideRoutines";
  case ErrCode::DeadlineExpired:
    return "DeadlineExpired";
  case ErrCode::MemBudgetExceeded:
    return "MemBudgetExceeded";
  case ErrCode::IterationCapExceeded:
    return "IterationCapExceeded";
  case ErrCode::Cancelled:
    return "Cancelled";
  case ErrCode::BudgetUnsatisfiable:
    return "BudgetUnsatisfiable";
  case ErrCode::InjectedFault:
    return "InjectedFault";
  case ErrCode::CodeTooLarge:
    return "CodeTooLarge";
  }
  return "Unknown";
}

std::string Status::str() const {
  std::ostringstream OS;
  OS << '[' << errorCodeName(Code) << "] " << Message;
  bool HaveContext = Offset >= 0 || Address >= 0 || !Routine.empty();
  if (HaveContext) {
    OS << " (";
    bool First = true;
    auto Sep = [&] {
      if (!First)
        OS << ", ";
      First = false;
    };
    if (Offset >= 0) {
      Sep();
      OS << "byte offset " << Offset;
    }
    if (Address >= 0) {
      Sep();
      OS << "address " << Address;
    }
    if (!Routine.empty()) {
      Sep();
      OS << "routine '" << Routine << '\'';
    }
    OS << ')';
  }
  return OS.str();
}
