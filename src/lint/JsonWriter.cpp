//===- lint/JsonWriter.cpp - JSON rendering of lint results ----------------===//

#include "lint/JsonWriter.h"

#include "telemetry/Json.h"

using namespace spike;

std::string spike::writeDiagnosticsJson(const LintResult &Result) {
  std::string Out = "{\n  \"diagnostics\": [";
  bool First = true;
  for (const Diagnostic &D : Result.Diags) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    {\"rule\": \"";
    Out += ruleCode(D.Rule);
    Out += "\", \"name\": \"";
    Out += ruleName(D.Rule);
    Out += "\", \"severity\": \"";
    Out += severityName(D.Sev);
    Out += "\"";
    if (!D.RoutineName.empty()) {
      Out += ", \"routine\": \"";
      Out += telemetry::jsonEscape(D.RoutineName);
      Out += "\"";
    }
    if (D.BlockIndex >= 0) {
      Out += ", \"block\": ";
      Out += std::to_string(D.BlockIndex);
    }
    if (D.Address >= 0) {
      Out += ", \"address\": ";
      Out += std::to_string(D.Address);
    }
    Out += ", \"message\": \"";
    Out += telemetry::jsonEscape(D.Message);
    Out += "\"";
    if (!D.Hint.empty()) {
      Out += ", \"hint\": \"";
      Out += telemetry::jsonEscape(D.Hint);
      Out += "\"";
    }
    Out += "}";
  }
  Out += First ? "],\n" : "\n  ],\n";
  Out += "  \"counts\": {\"note\": ";
  Out += std::to_string(Result.count(Severity::Note));
  Out += ", \"warning\": ";
  Out += std::to_string(Result.count(Severity::Warning));
  Out += ", \"error\": ";
  Out += std::to_string(Result.count(Severity::Error));
  Out += "}\n}\n";
  return Out;
}
