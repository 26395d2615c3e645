//! Empty stand-in: lets cargo resolve the workspace offline. Nothing the ledger builds uses it.
